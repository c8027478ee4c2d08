// math.archExp's avxfma sequence as a macro over four lanes, with its
// constants, for every lane kernel that needs math.Exp's bits (expBlocks in
// exp_amd64.s, activateBlocks in activate_amd64.s). The sequence and its
// constants are transcribed from the Go standard library's
// src/math/exp_amd64.s (Copyright 2010 The Go Authors, BSD-style license),
// which takes them from Naoki Shibata's SLEEF. Every instruction is the
// packed form of the scalar one archExp executes at the same point, with the
// same constants, and each lane of a packed IEEE operation is rounded
// exactly as the scalar operation is — so each lane yields archExp's bits.
// archExp's branches (non-finite input, overflow, denormal result) cannot
// be taken for |x| < 700, so a caller runs the sequence only on lanes it
// has checked are in that range, or discards the other lanes' results.

#define BCAST(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

BCAST(absmask, $0x7FFFFFFFFFFFFFFF)
BCAST(limit, $700.0)
BCAST(log2e, $1.4426950408889634073599246810018920)
BCAST(ln2u, $0.69314718055966295651160180568695068359375)
BCAST(ln2l, $0.28235290563031577122588448175013436025525412068e-12)
BCAST(sixteenth, $0.0625)
BCAST(t8, $2.4801587301587301587e-5)
BCAST(t7, $1.9841269841269841270e-4)
BCAST(t6, $1.3888888888888888889e-3)
BCAST(t5, $8.3333333333333333333e-3)
BCAST(t4, $4.1666666666666666667e-2)
BCAST(t3, $1.6666666666666666667e-1)
BCAST(half, $0.5)
BCAST(one, $1.0)
BCAST(two, $2.0)

DATA bias<>+0(SB)/4, $1023
DATA bias<>+4(SB)/4, $1023
DATA bias<>+8(SB)/4, $1023
DATA bias<>+12(SB)/4, $1023
GLOBL bias<>(SB), RODATA|NOPTR, $16

// EXPLANES(X, K, KX, KY, P) replaces each lane of X by math.Exp of it. K
// and P are scratch; KX and KY name one more scratch register as XMM and
// YMM. In order:
//   - k = round-to-nearest(x·log₂e), as CVTSD2SL, in KX; K = float(k);
//   - r = (x − k·LN2U − k·LN2L)·0.0625, each subtraction fused;
//   - the Taylor series in Horner form, fused, then r·p;
//   - undo the ×1/16: three (r+2)·r squarings, then (r+2)·r + 1 fused;
//   - ×2^k as (k + 1023) << 52, with k + 1023 in [13, 2033] for |x| < 700.
#define EXPLANES(X, K, KX, KY, P) \
	VMULPD       log2e<>(SB), X, K; \
	VCVTPD2DQY   K, KX; \
	VCVTDQ2PD    KX, K; \
	VFNMADD231PD ln2u<>(SB), K, X; \
	VFNMADD231PD ln2l<>(SB), K, X; \
	VMULPD       sixteenth<>(SB), X, X; \
	VMOVUPD      t8<>(SB), P; \
	VFMADD213PD  t7<>(SB), X, P; \
	VFMADD213PD  t6<>(SB), X, P; \
	VFMADD213PD  t5<>(SB), X, P; \
	VFMADD213PD  t4<>(SB), X, P; \
	VFMADD213PD  t3<>(SB), X, P; \
	VFMADD213PD  half<>(SB), X, P; \
	VFMADD213PD  one<>(SB), X, P; \
	VMULPD       P, X, X; \
	VADDPD       two<>(SB), X, P; \
	VMULPD       P, X, X; \
	VADDPD       two<>(SB), X, P; \
	VMULPD       P, X, X; \
	VADDPD       two<>(SB), X, P; \
	VMULPD       P, X, X; \
	VADDPD       two<>(SB), X, P; \
	VFMADD213PD  one<>(SB), P, X; \
	VPADDD       bias<>(SB), KX, KX; \
	VPMOVZXDQ    KX, KY; \
	VPSLLQ       $52, KY, KY; \
	VMULPD       KY, X, X
