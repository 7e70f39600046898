//go:build amd64

#include "textflag.h"

// AVX2 GEMM micro-kernel.
//
// Determinism: the kernel vectorizes across output columns j only. For each
// p step a single A element is broadcast and multiplied against a vector of
// B columns with separate multiply and add instructions (no FMA), so every
// output element accumulates its products one at a time, in strictly
// increasing p order, with exactly the two IEEE roundings of the scalar
// `c += a*b`. Lane position never mixes distinct output elements, so the
// results are bit-identical to the pure-Go kernels.

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemmKern4x8(c *float64, cStride uintptr, a *float64, aRow, aP uintptr, b *float64, bP uintptr, k uintptr)
//
// C block: 4 rows (cStride bytes apart) × 8 columns (two YMM). A: 4 rows
// (aRow bytes apart), stepped along p by aP bytes. B: 8 contiguous columns,
// stepped along p by bP bytes. All strides in bytes. Accumulates C += A·B
// over k steps.
//
// Register plan: Y0..Y7 = C accumulators (row-major pairs), Y8/Y9 = B row,
// Y10 = broadcast A scalar, Y11 = product. SI/R13/R14/R15 = A row cursors,
// BX = B cursor, DX = C cursor (load/store), CX = k countdown.
TEXT ·gemmKern4x8(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ cStride+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ aRow+24(FP), R9
	MOVQ aP+32(FP), R10
	MOVQ b+40(FP), BX
	MOVQ bP+48(FP), R11
	MOVQ k+56(FP), CX

	// Load the 4×8 C block.
	MOVQ DI, DX
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	ADDQ R8, DX
	VMOVUPD (DX), Y2
	VMOVUPD 32(DX), Y3
	ADDQ R8, DX
	VMOVUPD (DX), Y4
	VMOVUPD 32(DX), Y5
	ADDQ R8, DX
	VMOVUPD (DX), Y6
	VMOVUPD 32(DX), Y7

	// A row cursors.
	MOVQ SI, R13
	ADDQ R9, R13
	MOVQ R13, R14
	ADDQ R9, R14
	MOVQ R14, R15
	ADDQ R9, R15

	TESTQ CX, CX
	JZ   kern4x8done

kern4x8loop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9

	VBROADCASTSD (SI), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y1, Y1

	VBROADCASTSD (R13), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y3, Y3

	VBROADCASTSD (R14), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y5, Y5

	VBROADCASTSD (R15), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y6, Y6
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y7, Y7

	ADDQ R10, SI
	ADDQ R10, R13
	ADDQ R10, R14
	ADDQ R10, R15
	ADDQ R11, BX
	DECQ CX
	JNZ  kern4x8loop

kern4x8done:
	// Store the C block back.
	MOVQ c+0(FP), DX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ R8, DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ R8, DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ R8, DX
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	VZEROUPPER
	RET
