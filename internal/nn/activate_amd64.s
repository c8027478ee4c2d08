#include "go_asm.h"
#include "textflag.h"
#include "exp_amd64.h"

// activateBlocks is activate's Go path (activateExp in lstm.go) in four AVX
// lanes, one per hidden unit, for a group of four units at a time. Each
// lane runs its unit's IEEE operations in the Go formulas' order —
// sigmoidArg, tanhArg, math.Exp's own sequence (EXPLANES), sigmoidOf,
// tanhOf, cNew = f·cPrev + i·g unfused with both products first, the second
// exp, tanhOf(cNew) and h = o·tanhC — and each lane of a packed IEEE
// operation rounds as the scalar operation does, so every lane ends on the
// Go path's bits, which are sigmoid's and math.Tanh's. Branches become
// compare masks and blends: every lane computes both of sigmoidOf's
// numerators and all of tanhOf's cases and keeps the one its branch takes.
// tanhOf's two divisions (2/(s+1), and the polynomial's) are one VDIVPD of
// blended operands, since a lane takes one of them.
//
// A group whose gate exp arguments are not all in (−700, 700) is left to
// the Go caller, before anything of it is stored: activateBlocks returns
// the units it finished. The second exp, of 2|cNew|, needs no guard: its
// result counts only where 0.625 ≤ |cNew| ≤ 44.01, and the lanes outside
// that range discard it.
//
// The interleaved z[4u:4u+4] = (i, f, g, o) of the group's four units come
// in as two 128-bit halves per register, units 0 and 2 in one and 1 and 3
// in the other, so one VUNPCKLPD or VUNPCKHPD yields one gate's four units.
//
// A group's second half (CELL: the second exp, tanhOf(cNew), h) waits on
// its first (the gates and cNew) through two long dependency chains, so it
// runs one group late, after the next group's gates: each pass of the loop
// has two independent chains in flight. The group's cNew and o wait for it
// in registers.
//
// Registers: SI, BX, R8, R9 are the step's i, f, g, o, R10 cPrev, R11
// cNew, R12 tanhC and R13 h, all at unit k0, and AX the byte offset of the
// group in them; DI is the z cursor and CX the groups left. Y15 holds four
// 1s, Y13 and Y14 the previous group's cNew and o; Y0–Y3 are the group's
// gates, and Y4–Y12 scratch.

BCAST(signbit, $0x8000000000000000)
BCAST(zero, $0.0)
BCAST(tanhmid, $0.625)
BCAST(tanhbig, $0x404601e678fc457b) // 0.5·log(2¹²⁷), math.tanh's 0.5*MAXLOG
BCAST(tanhp0, $-9.64399179425052238628e-1)
BCAST(tanhp1, $-9.92877231001918586564e1)
BCAST(tanhp2, $-1.61468768441708447952e3)
BCAST(tanhq0, $1.12811678491632931402e2)
BCAST(tanhq1, $2.23548839060100448583e3)
BCAST(tanhq2, $4.84406305325125486048e3)

// SIGARG writes sigmoidArg(Z) to A and Z ≥ 0 to the mask M: −Z where
// Z ≥ 0, else Z (the sign flip Go's −Z is).
#define SIGARG(Z, A, M) \
	VCMPPD $0x1D, zero<>(SB), Z, M; \
	VANDPD signbit<>(SB), M, A; \
	VXORPD Z, A, A

// SIGOF replaces E = exp(sigmoidArg(z)) by sigmoidOf(z, E) in G, M being
// z ≥ 0: 1/(1+E) there, else E/(1+E).
#define SIGOF(E, M, G) \
	VADDPD    Y15, E, Y11; \
	VBLENDVPD M, Y15, E, E; \
	VDIVPD    Y11, E, G

// INRANGE sets the mask M to |A| < 700 (ordered, so false for NaN).
#define INRANGE(A, M) \
	VANDPD absmask<>(SB), A, M; \
	VCMPPD $0x11, limit<>(SB), M, M

// TANH replaces X by tanhOf(X, S), S being exp(tanhArg(X)) where tanhOf
// reads it; it clobbers S and T1–T4. The Go switch's cases, each in its
// operations' order:
//
//	|x| > 0.5·maxLog:  ±1, x's sign (x is not 0 there)
//	|x| ≥ 0.625:       q = 2/(s+1); 1 − q, negated where x < 0
//	x == 0:            x
//	otherwise:         s2 = x·x; q = ((x·s2)·((P0·s2 + P1)·s2 + P2)) /
//	                   (((s2 + Q0)·s2 + Q1)·s2 + Q2); x + q
//
// computed bottom up and blended top down, so the first case that holds
// wins, as in the switch (the x == 0 and |x| ≥ 0.625 lanes are apart); a
// NaN x fails every compare and takes the last.
#define TANH(X, S, T1, T2, T3, T4) \
	VMULPD    X, X, T1; \
	VMULPD    tanhp0<>(SB), T1, T2; \
	VADDPD    tanhp1<>(SB), T2, T2; \
	VMULPD    T1, T2, T2; \
	VADDPD    tanhp2<>(SB), T2, T2; \
	VADDPD    tanhq0<>(SB), T1, T3; \
	VMULPD    T1, T3, T3; \
	VADDPD    tanhq1<>(SB), T3, T3; \
	VMULPD    T1, T3, T3; \
	VADDPD    tanhq2<>(SB), T3, T3; \
	VMULPD    T1, X, T1; \
	VMULPD    T2, T1, T1; \
	VADDPD    Y15, S, S; \
	VANDPD    absmask<>(SB), X, T2; \
	VCMPPD    $0x1D, tanhmid<>(SB), T2, T4; \
	VCMPPD    $0x1E, tanhbig<>(SB), T2, T2; \
	VBLENDVPD T4, two<>(SB), T1, T1; \
	VBLENDVPD T4, S, T3, T3; \
	VDIVPD    T3, T1, T1; \
	VSUBPD    T1, Y15, T3; \
	VANDPD    signbit<>(SB), X, S; \
	VXORPD    S, T3, T3; \
	VADDPD    T1, X, T1; \
	VBLENDVPD T4, T3, T1, T1; \
	VCMPPD    $0x00, zero<>(SB), X, T4; \
	VBLENDVPD T4, X, T1, T1; \
	VORPD     Y15, S, S; \
	VBLENDVPD T2, S, T1, X

// CELL finishes the group before the one at AX from its cNew in Y13 and
// o in Y14: tanhC = tanhOf(cNew, exp(2|cNew|)), h = o·tanhC. It leaves
// Y3 and Y9 alone.
#define CELL \
	VANDPD   absmask<>(SB), Y13, Y10; \
	VADDPD   Y10, Y10, Y10; \
	EXPLANES(Y10, Y11, X12, Y12, Y4); \
	TANH(Y13, Y10, Y4, Y5, Y7, Y8); \
	VMULPD   Y13, Y14, Y14; \
	VMOVUPD  Y13, -32(R12)(AX*1); \
	VMOVUPD  Y14, -32(R13)(AX*1)

// func activateBlocks(st *lstmStep, k0 int, z []float64) int
TEXT ·activateBlocks(SB), NOSPLIT, $0-48
	MOVQ         st+0(FP), DX
	MOVQ         k0+8(FP), AX
	SHLQ         $3, AX
	MOVQ         lstmStep_i(DX), SI
	MOVQ         lstmStep_f(DX), BX
	MOVQ         lstmStep_g(DX), R8
	MOVQ         lstmStep_o(DX), R9
	MOVQ         lstmStep_cPrev(DX), R10
	MOVQ         lstmStep_cNew(DX), R11
	MOVQ         lstmStep_tanhC(DX), R12
	MOVQ         lstmStep_h(DX), R13
	ADDQ         AX, SI
	ADDQ         AX, BX
	ADDQ         AX, R8
	ADDQ         AX, R9
	ADDQ         AX, R10
	ADDQ         AX, R11
	ADDQ         AX, R12
	ADDQ         AX, R13
	MOVQ         z_base+16(FP), DI
	MOVQ         z_len+24(FP), CX
	SHRQ         $4, CX
	XORQ         AX, AX
	VBROADCASTSD one<>(SB), Y15
	TESTQ        CX, CX
	JZ           done

	PCALIGN $32 // the loop starts a 32-byte fetch window

loop:
	// Y0–Y3 = the four units' i, f, g and o pre-activations.
	VMOVUPD     (DI), X4
	VINSERTF128 $1, 64(DI), Y4, Y4
	VMOVUPD     32(DI), X5
	VINSERTF128 $1, 96(DI), Y5, Y5
	VMOVUPD     16(DI), X6
	VINSERTF128 $1, 80(DI), Y6, Y6
	VMOVUPD     48(DI), X7
	VINSERTF128 $1, 112(DI), Y7, Y7
	VUNPCKLPD   Y5, Y4, Y0
	VUNPCKHPD   Y5, Y4, Y1
	VUNPCKLPD   Y7, Y6, Y2
	VUNPCKHPD   Y7, Y6, Y3

	// The exp arguments in Y4–Y7, the sigmoid gates' z ≥ 0 in Y8–Y10.
	SIGARG(Y0, Y4, Y8)
	SIGARG(Y1, Y5, Y9)
	VANDPD absmask<>(SB), Y2, Y6
	VADDPD Y6, Y6, Y6
	SIGARG(Y3, Y7, Y10)

	INRANGE(Y4, Y11)
	INRANGE(Y5, Y12)
	VANDPD    Y12, Y11, Y11
	INRANGE(Y6, Y12)
	VANDPD    Y12, Y11, Y11
	INRANGE(Y7, Y12)
	VANDPD    Y12, Y11, Y11
	VMOVMSKPD Y11, DX
	CMPQ      DX, $15
	JNE       finish

	EXPLANES(Y4, Y11, X12, Y12, Y0)
	EXPLANES(Y5, Y11, X12, Y12, Y0)
	EXPLANES(Y6, Y11, X12, Y12, Y0)
	EXPLANES(Y7, Y11, X12, Y12, Y0)
	SIGOF(Y4, Y8, Y0)
	SIGOF(Y5, Y9, Y1)
	SIGOF(Y7, Y10, Y3)
	TANH(Y2, Y6, Y4, Y5, Y7, Y8)

	// cNew = f·cPrev + i·g.
	VMULPD  (R10)(AX*1), Y1, Y9
	VMULPD  Y2, Y0, Y10
	VADDPD  Y10, Y9, Y9
	VMOVUPD Y0, (SI)(AX*1)
	VMOVUPD Y1, (BX)(AX*1)
	VMOVUPD Y2, (R8)(AX*1)
	VMOVUPD Y3, (R9)(AX*1)
	VMOVUPD Y9, (R11)(AX*1)

	// The previous group's cell runs while this one's gates are still in
	// flight; this one's cNew and o move to Y13 and Y14 for the next.
	TESTQ   AX, AX
	JZ      carry
	CELL

carry:
	VMOVAPD Y9, Y13
	VMOVAPD Y3, Y14
	ADDQ    $32, AX
	ADDQ    $128, DI
	DECQ    CX
	JNZ     loop

finish:
	TESTQ AX, AX
	JZ    done
	CELL

done:
	VZEROUPPER
	SHRQ $3, AX
	MOVQ AX, ret+40(FP)
	RET
