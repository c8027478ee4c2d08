#include "textflag.h"
#include "exp_amd64.h"

// expBlocks is math.archExp's avxfma sequence (EXPLANES, exp_amd64.h) run
// in four lanes at once, a block of four elements at a time, each block
// only when all four of its lanes lie in (−700, 700); the Go caller takes
// any other block.

// func expBlocks(x []float64) int
TEXT ·expBlocks(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHRQ $2, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   done

loop:
	VMOVUPD (SI)(AX*8), Y0
	// Range guard: |x| < 700 in every lane (ordered, so false for NaN).
	VANDPD    absmask<>(SB), Y0, Y1
	VCMPPD    $0x11, limit<>(SB), Y1, Y1
	VMOVMSKPD Y1, DX
	CMPQ      DX, $15
	JNE       done

	EXPLANES(Y0, Y1, X2, Y2, Y3)

	VMOVUPD Y0, (SI)(AX*8)
	ADDQ    $4, AX
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
