#include "textflag.h"

// gateRows is gateRowsGo (lstm.go) in four AVX lanes, one per gate of a
// hidden unit: lane q of unit u's accumulator holds the row the Go loop
// keeps in zi, zf, zg or zo. It starts from the four biases and adds
// w[q][j]·xh[j] in ascending j, one unfused VMULPD and one VADDPD per
// column — the Go loop's MULSD and ADDSD in the same order — and each lane
// of a packed IEEE operation rounds as the scalar operation does, so every
// lane ends on the Go loop's bits.
//
// A unit's four gate rows lie gs·8 bytes apart. For columns j…j+3 the
// kernel loads i[j:j+2]|g[j:j+2] and f[j:j+2]|o[j:j+2] as 128-bit halves
// joined by VINSERTF128 (the same again at j+2), and VUNPCKLPD/VUNPCKHPD
// turn each pair into the [i f g o] vector of one column. Four units run
// side by side so four add chains hide the add latency; the units past a
// multiple of four, and the nin mod 4 columns past a multiple of four, go
// through the same lanes one at a time.
//
// Registers: SI, R10, R11, R12 are the i rows of the units in flight at
// column j, with the f, g and o rows at +R8, +2·R8 and +R13 (one and
// three gate strides); R9 is the row stride, AX nin, BX the xh cursor, DX
// the column count, CX the units left and DI the z cursor. Y0–Y3 are the
// accumulators, Y4–Y7 xh[j…j+3] broadcast, Y8–Y15 scratch.

// GATHER loads column 0 of the four gate rows at P as [i f g o] into Y.
#define GATHER(P, X, Y) \
	VMOVSD      (P), X; \
	VMOVHPD     (P)(R8*1), X, X; \
	VMOVSD      (P)(R8*2), X9; \
	VMOVHPD     (P)(R13*1), X9, X9; \
	VINSERTF128 $1, X9, Y, Y

// BLOCK adds columns j…j+3 of the unit at P to ACC and moves P on.
#define BLOCK(P, ACC) \
	VMOVUPD     (P), X8; \
	VINSERTF128 $1, (P)(R8*2), Y8, Y8; \
	VMOVUPD     (P)(R8*1), X9; \
	VINSERTF128 $1, (P)(R13*1), Y9, Y9; \
	VMOVUPD     16(P), X10; \
	VINSERTF128 $1, 16(P)(R8*2), Y10, Y10; \
	VMOVUPD     16(P)(R8*1), X11; \
	VINSERTF128 $1, 16(P)(R13*1), Y11, Y11; \
	VUNPCKLPD   Y9, Y8, Y12; \
	VUNPCKHPD   Y9, Y8, Y13; \
	VUNPCKLPD   Y11, Y10, Y14; \
	VUNPCKHPD   Y11, Y10, Y15; \
	VMULPD      Y4, Y12, Y12; \
	VADDPD      Y12, ACC, ACC; \
	VMULPD      Y5, Y13, Y13; \
	VADDPD      Y13, ACC, ACC; \
	VMULPD      Y6, Y14, Y14; \
	VADDPD      Y14, ACC, ACC; \
	VMULPD      Y7, Y15, Y15; \
	VADDPD      Y15, ACC, ACC; \
	ADDQ        $32, P

// COL adds column j of the unit at P to ACC and moves P on.
#define COL(P, ACC) \
	GATHER(P, X8, Y8); \
	VMULPD Y4, Y8, Y8; \
	VADDPD Y8, ACC, ACC; \
	ADDQ   $8, P

// BIAS starts ACC at the unit's biases (column nin of the rows at P).
#define BIAS(P, X, Y) \
	LEAQ (P)(AX*8), DX; \
	GATHER(DX, X, Y)

#define BCAST4 \
	VBROADCASTSD (BX), Y4; \
	VBROADCASTSD 8(BX), Y5; \
	VBROADCASTSD 16(BX), Y6; \
	VBROADCASTSD 24(BX), Y7; \
	ADDQ         $32, BX

#define BCAST1 \
	VBROADCASTSD (BX), Y4; \
	ADDQ         $8, BX

// func gateRows(z, w, xh []float64, gs int)
TEXT ·gateRows(SB), NOSPLIT, $0-80
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), CX
	SHRQ $2, CX
	MOVQ w_base+24(FP), SI
	MOVQ xh_len+56(FP), AX
	MOVQ gs+72(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R13
	LEAQ 1(AX), R9
	SHLQ $3, R9
	CMPQ CX, $4
	JLT  one

four:
	LEAQ (SI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	BIAS(SI, X0, Y0)
	BIAS(R10, X1, Y1)
	BIAS(R11, X2, Y2)
	BIAS(R12, X3, Y3)
	MOVQ xh_base+48(FP), BX
	MOVQ AX, DX
	SHRQ $2, DX
	JZ   fourtail

	PCALIGN $32 // the hot loop starts a 32-byte fetch window

fourblock:
	BCAST4
	BLOCK(SI, Y0)
	BLOCK(R10, Y1)
	BLOCK(R11, Y2)
	BLOCK(R12, Y3)
	DECQ DX
	JNZ  fourblock

fourtail:
	MOVQ AX, DX
	ANDQ $3, DX
	JZ   fourstore

fourcol:
	BCAST1
	COL(SI, Y0)
	COL(R10, Y1)
	COL(R11, Y2)
	COL(R12, Y3)
	DECQ DX
	JNZ  fourcol

fourstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    8(R12), SI // R12 is at the last unit's bias; the next row follows
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     four

one:
	TESTQ CX, CX
	JZ    done

oneunit:
	BIAS(SI, X0, Y0)
	MOVQ xh_base+48(FP), BX
	MOVQ AX, DX
	SHRQ $2, DX
	JZ   onetail

oneblock:
	BCAST4
	BLOCK(SI, Y0)
	DECQ DX
	JNZ  oneblock

onetail:
	MOVQ AX, DX
	ANDQ $3, DX
	JZ   onestore

onecol:
	BCAST1
	COL(SI, Y0)
	DECQ DX
	JNZ  onecol

onestore:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $8, SI
	DECQ    CX
	JNZ     oneunit

done:
	VZEROUPPER
	RET
