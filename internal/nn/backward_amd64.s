#include "go_asm.h"
#include "textflag.h"

// backSweep is backSweepGo (lstm.go) in four AVX lanes, one per column:
// lane q of a block's accumulator holds the dxh[j+q] the Go loop keeps in
// a register, and lane q of a gradient row update is that loop's
// grad[r][j+q] += d·xh[j+q]. The accumulator starts from +0 and, for each
// row r with dz[r] ≠ 0 in ascending r, adds dz[r]·w[r][j+q] — one unfused
// VMULPD and one VADDPD, the Go loop's MULSD and ADDSD in the same order —
// and each lane of a packed IEEE operation rounds as the scalar operation
// does, so every lane ends on the Go loop's bits. A row is skipped when
// dz[r] is ±0, tested as its bits shifted left by one being zero (true for
// both zeros, false for every NaN), as the Go loop's d == 0 is.
//
// Two column blocks run per pass, so two accumulator chains are in flight;
// an odd last block runs alone. The t = nin mod 4 columns past the blocks
// and the bias column after them are t+1 adjacent entries of a row, so one
// masked pass covers them: lanes 0…t−1 are the tail columns, and lane t
// is the bias, whose input is 1, so its update adds d·1 = d, the Go loop's
// grad[r][nin] += d. Masked lanes are neither read nor written, and lane
// t's accumulator is not stored.
//
// Registers: DI is the dxh cursor, BX the xh cursor, SI the grad cursor of
// row 0 at the current column, R8 w's offset from grad, R9 the row stride
// (nin+1)·8, R10 and R11 the start and end of dz, CX the passes left; in a
// pass DX walks dz, R13 the grad row and R12 holds dz[r]'s bits. Y0, Y1 are
// the accumulators, Y4, Y5 the pass's xh columns, Y2 dz[r] broadcast, Y10
// and Y11 the tail pass's masks, Y6–Y9 scratch.

// laneMask holds four all-ones quadwords then four zeros: the 32 bytes at
// laneMask+32−8k enable the first k lanes. laneOne holds 1.0 after three
// zeros and before three more: the 32 bytes at laneOne+24−8t hold 1.0 in
// lane t and +0 elsewhere.
DATA laneMask<>+0(SB)/8, $-1
DATA laneMask<>+8(SB)/8, $-1
DATA laneMask<>+16(SB)/8, $-1
DATA laneMask<>+24(SB)/8, $-1
DATA laneMask<>+32(SB)/8, $0
DATA laneMask<>+40(SB)/8, $0
DATA laneMask<>+48(SB)/8, $0
DATA laneMask<>+56(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $64

DATA laneOne<>+0(SB)/8, $0
DATA laneOne<>+8(SB)/8, $0
DATA laneOne<>+16(SB)/8, $0
DATA laneOne<>+24(SB)/8, $1.0
DATA laneOne<>+32(SB)/8, $0
DATA laneOne<>+40(SB)/8, $0
DATA laneOne<>+48(SB)/8, $0
GLOBL laneOne<>(SB), RODATA|NOPTR, $56

// ROW adds row r's terms for the block at offset OFF: grad[r][j…j+3] +=
// dz[r]·xh[j…j+3] and ACC += dz[r]·w[r][j…j+3].
#define ROW(OFF, X, ACC, T, U) \
	VMULPD  X, Y2, T; \
	VADDPD  OFF(R13), T, T; \
	VMOVUPD T, OFF(R13); \
	VMULPD  OFF(R13)(R8*1), Y2, U; \
	VADDPD  U, ACC, ACC

// func backSweep(dxh, grad, w, xh, dz []float64)
TEXT ·backSweep(SB), NOSPLIT, $0-120
	MOVQ dxh_base+0(FP), DI
	MOVQ grad_base+24(FP), SI
	MOVQ w_base+48(FP), R8
	SUBQ SI, R8
	MOVQ xh_base+72(FP), BX
	MOVQ xh_len+80(FP), CX
	LEAQ 8(CX*8), R9
	MOVQ dz_base+96(FP), R10
	MOVQ dz_len+104(FP), R11
	LEAQ (R10)(R11*8), R11
	SHRQ $3, CX
	JZ   single

pair:
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	MOVQ    R10, DX
	MOVQ    SI, R13
	JMP     pairtest

	PCALIGN $32 // the hot loop starts a 32-byte fetch window

pairrow:
	MOVQ         (DX), R12
	SHLQ         $1, R12
	JZ           pairnext
	VBROADCASTSD (DX), Y2
	ROW(0, Y4, Y0, Y6, Y7)
	ROW(32, Y5, Y1, Y8, Y9)

pairnext:
	ADDQ $8, DX
	ADDQ R9, R13

pairtest:
	CMPQ DX, R11
	JNE  pairrow
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, BX
	ADDQ    $64, SI
	DECQ    CX
	JNZ     pair

single:
	MOVQ  xh_len+80(FP), CX
	TESTQ $4, CX
	JZ    tail
	VMOVUPD (BX), Y4
	VXORPD  Y0, Y0, Y0
	MOVQ    R10, DX
	MOVQ    SI, R13
	JMP     singletest

singlerow:
	MOVQ         (DX), R12
	SHLQ         $1, R12
	JZ           singlenext
	VBROADCASTSD (DX), Y2
	ROW(0, Y4, Y0, Y6, Y7)

singlenext:
	ADDQ $8, DX
	ADDQ R9, R13

singletest:
	CMPQ DX, R11
	JNE  singlerow
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, BX
	ADDQ    $32, SI

tail:
	ANDQ       $3, CX
	SHLQ       $3, CX
	LEAQ       laneMask<>+32(SB), AX
	SUBQ       CX, AX
	VMOVUPD    (AX), Y10 // lanes 0…t−1: the tail columns
	VMOVUPD    -8(AX), Y11 // lanes 0…t: the tail columns and the bias
	LEAQ       laneOne<>+24(SB), AX
	SUBQ       CX, AX
	VMASKMOVPD (BX), Y10, Y4
	VORPD      (AX), Y4, Y4 // xh[j…nin−1], then 1 for the bias
	VXORPD     Y0, Y0, Y0
	MOVQ       R10, DX
	MOVQ       SI, R13
	JMP        tailtest

tailrow:
	MOVQ         (DX), R12
	SHLQ         $1, R12
	JZ           tailnext
	VBROADCASTSD (DX), Y2
	VMULPD       Y4, Y2, Y6
	VMASKMOVPD   (R13), Y11, Y7
	VADDPD       Y7, Y6, Y6
	VMASKMOVPD   Y6, Y11, (R13)
	VMASKMOVPD   (R13)(R8*1), Y11, Y7
	VMULPD       Y7, Y2, Y7
	VADDPD       Y7, Y0, Y0

tailnext:
	ADDQ $8, DX
	ADDQ R9, R13

tailtest:
	CMPQ       DX, R11
	JNE        tailrow
	VMASKMOVPD Y0, Y10, (DI)
	VZEROUPPER
	RET

// backSweepIn is backSweepInGo (lstm.go) in four AVX lanes: for each row
// r with dz[r] ≠ 0, tested as backSweep tests it, it adds dz[r]·x[j…j+3]
// into the row's gradient four columns at a time — one unfused VMULPD and
// one VADDPD, in backSweep's operand order — then the len(x) mod 4 columns
// past the blocks under a mask, then dz[r] into the row's bias entry with
// one VADDSD. Every gradient entry takes one add, so every bit is the Go
// loop's.
//
// Registers: SI is the grad row, BX x, CX the blocks a row, AX the tail's
// bytes, DX walks dz up to R11, and R9 is the row stride in bytes (the
// bias is a row's last entry, at −8 from the next row); in a row R13 walks
// the gradient, R14 x and DI counts the blocks. Y2 is dz[r] broadcast, Y10 the tail mask, Y4,
// Y6 and Y7 scratch.

// func backSweepIn(grad, x, dz []float64, cols int)
TEXT ·backSweepIn(SB), NOSPLIT, $0-80
	MOVQ    grad_base+0(FP), SI
	MOVQ    x_base+24(FP), BX
	MOVQ    x_len+32(FP), CX
	MOVQ    dz_base+48(FP), DX
	MOVQ    dz_len+56(FP), R11
	LEAQ    (DX)(R11*8), R11
	MOVQ    cols+72(FP), R9
	SHLQ    $3, R9
	MOVQ    CX, AX
	ANDQ    $3, AX
	SHLQ    $3, AX
	LEAQ    laneMask<>+32(SB), R8
	SUBQ    AX, R8
	VMOVUPD (R8), Y10 // lanes 0…t−1: the tail columns
	SHRQ    $2, CX
	JMP     intest

inrow:
	MOVQ         (DX), R12
	SHLQ         $1, R12
	JZ           innext
	VBROADCASTSD (DX), Y2
	MOVQ         SI, R13
	MOVQ         BX, R14
	MOVQ         CX, DI
	TESTQ        DI, DI
	JZ           intail

inblock:
	VMULPD  (R14), Y2, Y6
	VADDPD  (R13), Y6, Y6
	VMOVUPD Y6, (R13)
	ADDQ    $32, R13
	ADDQ    $32, R14
	DECQ    DI
	JNZ     inblock

intail:
	TESTQ      AX, AX
	JZ         inbias
	VMASKMOVPD (R14), Y10, Y4
	VMULPD     Y4, Y2, Y6
	VMASKMOVPD (R13), Y10, Y7
	VADDPD     Y7, Y6, Y6
	VMASKMOVPD Y6, Y10, (R13)

inbias:
	VMOVSD -8(SI)(R9*1), X7
	VADDSD X7, X2, X7
	VMOVSD X7, -8(SI)(R9*1)

innext:
	ADDQ $8, DX
	ADDQ R9, SI

intest:
	CMPQ DX, R11
	JNE  inrow
	VZEROUPPER
	RET

// backGates is backGatesGo (lstm.go) in four AVX lanes, one per hidden
// unit: each lane runs its unit's multiplies and subtracts and its one add,
// unfused and in the Go loop's order, so each ends on the Go loop's bits. The h mod 4 units past the last group of four go through
// the same lanes once more under a mask; masked lanes are neither read nor
// written.
//
// Registers: SI, DI, R8, R9, R10, R11 are the step's i, f, g, o, cPrev and
// tanhC, and AX, BX, CX dh, dc and dcPrev, each moved to the end of the
// four-unit groups so that R14 counts up from −(h&^3)·8 to 0 through all
// of them; DX walks dz's input-gate block, with the forget, cell and
// output blocks at +R12, +2·R12 and +R13 (h·8 and 3h·8). Y0–Y7 are the
// inputs, Y8–Y12 the outputs, Y13 scratch, Y14 four 1s and Y15 the mask.

// GATES computes dcPrev (Y8) and the four gate rows of dz (Y9–Y12) from dh,
// tanhC, o, dc, g, cPrev, i, f in Y0–Y7:
//
//	do = dh·tanhC; dcT = dh·o·(1 − tanhC·tanhC) + dc
//	dcPrev = dcT·f
//	dz_i = dcT·g·i·(1 − i); dz_f = dcT·cPrev·f·(1 − f)
//	dz_g = dcT·i·(1 − g·g);  dz_o = do·o·(1 − o)
#define GATES \
	VMULPD Y1, Y0, Y12; \
	VMULPD Y2, Y0, Y0; \
	VMULPD Y1, Y1, Y1; \
	VSUBPD Y1, Y14, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD Y3, Y0, Y0; \
	VMULPD Y4, Y0, Y9; \
	VMULPD Y5, Y0, Y10; \
	VMULPD Y6, Y0, Y11; \
	VMULPD Y7, Y0, Y8; \
	VMULPD Y6, Y9, Y9; \
	VSUBPD Y6, Y14, Y13; \
	VMULPD Y13, Y9, Y9; \
	VMULPD Y7, Y10, Y10; \
	VSUBPD Y7, Y14, Y13; \
	VMULPD Y13, Y10, Y10; \
	VMULPD Y4, Y4, Y13; \
	VSUBPD Y13, Y14, Y13; \
	VMULPD Y13, Y11, Y11; \
	VMULPD Y2, Y12, Y12; \
	VSUBPD Y2, Y14, Y13; \
	VMULPD Y13, Y12, Y12

// func backGates(st *lstmStep, dh, dc, dcPrev, dz []float64)
TEXT ·backGates(SB), NOSPLIT, $0-104
	MOVQ         dz_len+88(FP), R12
	SHLQ         $1, R12 // h·8 = len(dz)·2
	MOVQ         R12, AX
	ANDQ         $31, AX // (h mod 4)·8
	LEAQ         laneMask<>+32(SB), R13
	SUBQ         AX, R13
	VMOVUPD      (R13), Y15
	VBROADCASTSD laneOne<>+24(SB), Y14
	LEAQ         (R12)(R12*2), R13
	MOVQ         R12, R14
	ANDQ         $-32, R14
	MOVQ         st+0(FP), DX
	MOVQ         lstmStep_i(DX), SI
	MOVQ         lstmStep_f(DX), DI
	MOVQ         lstmStep_g(DX), R8
	MOVQ         lstmStep_o(DX), R9
	MOVQ         lstmStep_cPrev(DX), R10
	MOVQ         lstmStep_tanhC(DX), R11
	MOVQ         dh_base+8(FP), AX
	MOVQ         dc_base+32(FP), BX
	MOVQ         dcPrev_base+56(FP), CX
	MOVQ         dz_base+80(FP), DX
	ADDQ         R14, SI
	ADDQ         R14, DI
	ADDQ         R14, R8
	ADDQ         R14, R9
	ADDQ         R14, R10
	ADDQ         R14, R11
	ADDQ         R14, AX
	ADDQ         R14, BX
	ADDQ         R14, CX
	NEGQ         R14
	JZ           gatesrest

	PCALIGN $32 // the loop starts a 32-byte fetch window

gatesfour:
	VMOVUPD (AX)(R14*1), Y0
	VMOVUPD (R11)(R14*1), Y1
	VMOVUPD (R9)(R14*1), Y2
	VMOVUPD (BX)(R14*1), Y3
	VMOVUPD (R8)(R14*1), Y4
	VMOVUPD (R10)(R14*1), Y5
	VMOVUPD (SI)(R14*1), Y6
	VMOVUPD (DI)(R14*1), Y7
	GATES
	VMOVUPD Y8, (CX)(R14*1)
	VMOVUPD Y9, (DX)
	VMOVUPD Y10, (DX)(R12*1)
	VMOVUPD Y11, (DX)(R12*2)
	VMOVUPD Y12, (DX)(R13*1)
	ADDQ    $32, DX
	ADDQ    $32, R14
	JNZ     gatesfour

gatesrest:
	TESTQ      $31, R12
	JZ         gatesdone
	VMASKMOVPD (AX), Y15, Y0
	VMASKMOVPD (R11), Y15, Y1
	VMASKMOVPD (R9), Y15, Y2
	VMASKMOVPD (BX), Y15, Y3
	VMASKMOVPD (R8), Y15, Y4
	VMASKMOVPD (R10), Y15, Y5
	VMASKMOVPD (SI), Y15, Y6
	VMASKMOVPD (DI), Y15, Y7
	GATES
	VMASKMOVPD Y8, Y15, (CX)
	VMASKMOVPD Y9, Y15, (DX)
	VMASKMOVPD Y10, Y15, (DX)(R12*1)
	VMASKMOVPD Y11, Y15, (DX)(R12*2)
	VMASKMOVPD Y12, Y15, (DX)(R13*1)

gatesdone:
	VZEROUPPER
	RET
