//go:build amd64

package mat

// AVX2 feature detection and the Go-side drivers for the assembly
// micro-kernels in gemm_amd64.s.
//
// One strided kernel shape serves every GEMM variant: it computes a 4-row ×
// 8-column block of C += A·B where consecutive A
// rows are aRow bytes apart, consecutive p elements of one A row are aP
// bytes apart, and consecutive p rows of B are bP bytes apart. The NN
// product uses (aRow, aP) = (A.Cols·8, 8); the TN product reads column i of
// A as an output row with (aRow, aP) = (8, A.Cols·8); the NT product packs
// Bᵀ first (PackNT) and runs the NN shape. All strides are in bytes.

// simdAvailable is true when the CPU and OS support the AVX2 kernels.
var simdAvailable = hasAVX2()

// hasAVX2 checks CPUID for AVX2 and XGETBV for OS-managed YMM state.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	// Leaf 1 ECX: bit 27 OSXSAVE, bit 28 AVX.
	_, _, c, _ := cpuidex(1, 0)
	const osxsaveAVX = 1<<27 | 1<<28
	if c&osxsaveAVX != osxsaveAVX {
		return false
	}
	// XCR0 bits 1..2: SSE and YMM state enabled by the OS.
	lo, _ := xgetbv0()
	if lo&0x6 != 0x6 {
		return false
	}
	// Leaf 7 EBX: bit 5 AVX2.
	_, b, _, _ := cpuidex(7, 0)
	return b&(1<<5) != 0
}

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0.
func xgetbv0() (eax, edx uint32)

// gemmKern4x8 computes the 4×8 float64 block at c += a·b as described in the
// file comment: 4 strided A rows against 8 contiguous B columns over k steps
// of the shared p index, with separate VMULPD/VADDPD per step.
//
//go:noescape
func gemmKern4x8(c *float64, cStride uintptr, a *float64, aRow, aP uintptr, b *float64, bP uintptr, k uintptr)

// gemmRowsNNSIMD computes rows [i0,i1) of C += A·B with the AVX2 kernel,
// delegating partial tiles (rows mod 4, columns mod 8) to the scalar edge
// kernel. Caller guarantees i0 < i1, C.Cols >= simdMinCols and A.Cols > 0.
func gemmRowsNNSIMD(C, A, B *Matrix, i0, i1 int) {
	n, k := C.Cols, A.Cols
	nv := n &^ 7
	cc, ac, bc := C.Cols, A.Cols, B.Cols
	cs, as, bs := uintptr(cc)*8, uintptr(ac)*8, uintptr(bc)*8
	i := i0
	for ; i+gemmTile <= i1; i += gemmTile {
		crow := i * cc
		arow := i * ac
		for j := 0; j < nv; j += 8 {
			gemmKern4x8(&C.Data[crow+j], cs, &A.Data[arow], as, 8, &B.Data[j], bs, uintptr(k))
		}
		if nv < n {
			gemmEdgeNN(C, A, B, i, i+gemmTile, nv, n, k)
		}
	}
	if i < i1 {
		gemmEdgeNN(C, A, B, i, i1, 0, n, k)
	}
}

// gemmRowsTNSIMD computes rows [i0,i1) of C += Aᵀ·B with the AVX2 kernel:
// output row i reads column i of A, so the kernel walks A with a row stride
// of one element and a p stride of one A row.
func gemmRowsTNSIMD(C, A, B *Matrix, i0, i1 int) {
	n, k := C.Cols, A.Rows
	nv := n &^ 7
	cc, ac, bc := C.Cols, A.Cols, B.Cols
	cs, bs := uintptr(cc)*8, uintptr(bc)*8
	ap := uintptr(ac) * 8
	i := i0
	for ; i+gemmTile <= i1; i += gemmTile {
		crow := i * cc
		for j := 0; j < nv; j += 8 {
			gemmKern4x8(&C.Data[crow+j], cs, &A.Data[i], 8, ap, &B.Data[j], bs, uintptr(k))
		}
		if nv < n {
			gemmEdgeTN(C, A, B, i, i+gemmTile, nv, n, k)
		}
	}
	if i < i1 {
		gemmEdgeTN(C, A, B, i, i1, 0, n, k)
	}
}
