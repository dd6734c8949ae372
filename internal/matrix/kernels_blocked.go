// The blocked kernels: the panel transpose, 2-D convolution/stencil
// with constant (zero) boundary, axis reductions with stride-1 inner
// loops, and the matmul row kernel with its blocked-recursive split
// above the size cutoff. All follow the kernels.go contract — validate before allocating, newKernelOut for outputs,
// runKernel for pool distribution with cooperative cancellation, boxed
// reference oracles in ops.go pinned by differential tests.
package matrix

import "fmt"

// transposePanel is the panel width of the transpose kernel: 8 adjacent
// source columns — one 64-byte line of 8-byte cells — are the 8 output
// rows one walk down the source appends to. transposePanels' loop body
// is written out for 8.
const transposePanel = 8

// TransposeExec returns the transpose of a rank-2 matrix through the
// panel kernel: every store extends a contiguous output row, and output
// rows are distributed over the pool.
func TransposeExec(m *Matrix, x Exec) (*Matrix, error) {
	if m.Rank() != 2 {
		return nil, fmt.Errorf("matrix: transpose requires a rank-2 matrix, got rank %d", m.Rank())
	}
	rows, cols := m.shape()[0], m.shape()[1]
	out, err := newKernelOut(x.Budget, m.elem, []int{cols, rows})
	if err != nil {
		return nil, err
	}
	kernelTransposeCount.Add(1)
	if out.Size() == 0 {
		return out, nil
	}
	if err := transposeInto(out, m, x, false); err != nil {
		out.Recycle()
		return nil, err
	}
	return out, nil
}

// transposeInto writes the transpose of the rank-2 m into every cell of
// out, which has m's element type and its shape reversed, output rows
// (m's columns) distributed through runKernel. A with-loop that is a
// transpose (genarray) forks whenever the closure engine would over the
// same output rows: see poolGrain.
func transposeInto(out, m *Matrix, x Exec, genarray bool) error {
	rows, cols := m.shape()[0], m.shape()[1]
	// Output rows per parallel chunk: ParallelGrain cells, in whole panels.
	grain := 1
	if rows > 0 {
		grain = (ParallelGrain + rows - 1) / rows
	}
	grain = (grain + transposePanel - 1) / transposePanel * transposePanel
	if genarray {
		grain = poolGrain(x, cols, grain)
	}
	var body func(lo, hi int) error
	switch m.elem {
	case Float:
		src, dst := m.floats(), out.floats()
		body = func(lo, hi int) error { transposePanels(dst, src, lo, hi, rows, cols); return nil }
	case Int:
		src, dst := m.ints(), out.ints()
		body = func(lo, hi int) error { transposePanels(dst, src, lo, hi, rows, cols); return nil }
	default:
		src, dst := m.bools(), out.bools()
		body = func(lo, hi int) error { transposePanels(dst, src, lo, hi, rows, cols); return nil }
	}
	return runKernel(x, cols, grain, body)
}

// transposePanels writes dst[j*rows+i] = src[i*cols+j] for the output
// rows of the chunk [lo, hi). A panel of transposePanel rows walks the
// source once, reading transposePanel adjacent cells of each source row
// and appending one to each output row, so one source line and
// transposePanel output runs are open at a time whatever the strides;
// the rows left over run one at a time. runKernel evens its chunks out,
// so both chunk edges are snapped down to a panel edge (hi = cols stays)
// and no panel is split between workers; a chunk may come out empty.
func transposePanels[T int64 | float64 | bool](dst, src []T, lo, hi, rows, cols int) {
	j, jhi := lo-lo%transposePanel, hi
	if hi < cols {
		jhi = hi - hi%transposePanel
	}
	for ; j+transposePanel <= jhi; j += transposePanel {
		d := dst[j*rows:]
		d0, d1, d2, d3 := d[:rows], d[rows:][:rows], d[2*rows:][:rows], d[3*rows:][:rows]
		d4, d5, d6, d7 := d[4*rows:][:rows], d[5*rows:][:rows], d[6*rows:][:rows], d[7*rows:][:rows]
		for i := range rows {
			s := (*[transposePanel]T)(src[i*cols+j:])
			d0[i], d1[i], d2[i], d3[i] = s[0], s[1], s[2], s[3]
			d4[i], d5[i], d6[i], d7[i] = s[4], s[5], s[6], s[7]
		}
	}
	for ; j < jhi; j++ {
		d := dst[j*rows : (j+1)*rows]
		for i := range d {
			d[i] = src[i*cols+j]
		}
	}
}

// Conv2DExec computes the 2-D cross-correlation of src with an
// odd-dimension kernel, same-size output, constant (zero) boundary:
// out[i,j] = Σ_{u,v} src[i+u-kh/2, j+v-kw/2] * kern[u,v], with
// out-of-range source cells contributing zero. Int×Int stays exact in
// int64; any Float operand promotes the int side once and runs the
// float kernel. Rows of the interior run an unchecked inner loop; the
// boundary rows and columns take the checked path.
func Conv2DExec(src, kern *Matrix, x Exec) (*Matrix, error) {
	if src.Rank() != 2 || kern.Rank() != 2 {
		return nil, fmt.Errorf("matrix: conv2d requires rank-2 matrices, got ranks %d and %d", src.Rank(), kern.Rank())
	}
	if src.elem == Bool || kern.elem == Bool {
		return nil, fmt.Errorf("matrix: conv2d requires numeric matrices")
	}
	kh, kw := kern.shape()[0], kern.shape()[1]
	if kh%2 == 0 || kw%2 == 0 {
		return nil, fmt.Errorf("matrix: conv2d kernel dimensions must be odd, got %v", kern.shape())
	}
	rows, cols := src.shape()[0], src.shape()[1]
	// Fused multiply-adds per output row; sizes the parallel chunks.
	rowWork := cols * kh * kw
	grainRows := 1
	if rowWork > 0 {
		grainRows = (ParallelGrain + rowWork - 1) / rowWork
	}
	if src.elem == Int && kern.elem == Int {
		out, err := newKernelOut(x.Budget, Int, []int{rows, cols})
		if err != nil {
			return nil, err
		}
		kernelConvCount.Add(1)
		si, ki, di := src.ints(), kern.ints(), out.ints()
		err = runKernel(x, rows, grainRows, func(rlo, rhi int) error {
			convRows(di, si, ki, rlo, rhi, rows, cols, kh, kw)
			return nil
		})
		if err != nil {
			out.Recycle()
			return nil, err
		}
		return out, nil
	}
	sv, sScr, err := floatScratch(x, src)
	if err != nil {
		return nil, err
	}
	kv, kScr, err := floatScratch(x, kern)
	if err != nil {
		releaseFloatScratch(sv, sScr)
		return nil, err
	}
	out, err := newKernelOut(x.Budget, Float, []int{rows, cols})
	if err != nil {
		releaseFloatScratch(sv, sScr)
		releaseFloatScratch(kv, kScr)
		return nil, err
	}
	kernelConvCount.Add(1)
	df := out.floats()
	err = runKernel(x, rows, grainRows, func(rlo, rhi int) error {
		convRows(df, sv, kv, rlo, rhi, rows, cols, kh, kw)
		return nil
	})
	releaseFloatScratch(sv, sScr)
	releaseFloatScratch(kv, kScr)
	if err != nil {
		out.Recycle()
		return nil, err
	}
	return out, nil
}

// convRows fills output rows [rlo, rhi). The kernel taps accumulate in
// (u, v) order — the same order as Conv2DRef — so float results are
// bit-identical to the oracle. Interior columns of in-range source
// rows run without per-tap bounds checks.
func convRows[T int64 | float64](dst, src, kern []T, rlo, rhi, rows, cols, kh, kw int) {
	cy, cx := kh/2, kw/2
	for i := rlo; i < rhi; i++ {
		row := dst[i*cols : (i+1)*cols]
		// Columns [jin0, jin1) have every horizontal tap in range.
		jin0, jin1 := cx, cols-(kw-1-cx)
		if jin0 > jin1 {
			jin0, jin1 = 0, 0
		}
		for j := 0; j < cols; j++ {
			var acc T
			if j >= jin0 && j < jin1 {
				for u := 0; u < kh; u++ {
					si := i + u - cy
					if si < 0 || si >= rows {
						continue
					}
					srow := src[si*cols+j-cx : si*cols+j-cx+kw]
					krow := kern[u*kw : (u+1)*kw]
					for v, kval := range krow {
						acc += srow[v] * kval
					}
				}
			} else {
				for u := 0; u < kh; u++ {
					si := i + u - cy
					if si < 0 || si >= rows {
						continue
					}
					for v := 0; v < kw; v++ {
						sj := j + v - cx
						if sj < 0 || sj >= cols {
							continue
						}
						acc += src[si*cols+sj] * kern[u*kw+v]
					}
				}
			}
			row[j] = acc
		}
	}
}

// ReduceAxisExec reduces m along one axis with a fold operator, producing
// a matrix of m's shape with that axis removed. The loop order keeps
// the inner stride 1 in both layouts: a last-axis reduction
// accumulates over contiguous runs, any other axis combines contiguous
// inner blocks into the output slice. Sum and product of an empty axis
// yield the identity; min and max of an empty axis are an error.
func ReduceAxisExec(kind FoldKind, m *Matrix, axis int, x Exec) (*Matrix, error) {
	if m.elem == Bool {
		return nil, fmt.Errorf("matrix: reduce requires a numeric matrix")
	}
	if axis < 0 || axis >= m.Rank() {
		return nil, fmt.Errorf("matrix: reduce axis %d out of range for rank %d", axis, m.Rank())
	}
	axisN := m.shape()[axis]
	if axisN == 0 && (kind == FoldMin || kind == FoldMax) {
		return nil, fmt.Errorf("matrix: reduce %s along an empty dimension", kind)
	}
	outShape := make([]int, 0, m.Rank()-1)
	outer, inner := 1, 1
	for d, n := range m.shape() {
		switch {
		case d < axis:
			outer *= n
			outShape = append(outShape, n)
		case d > axis:
			inner *= n
			outShape = append(outShape, n)
		}
	}
	out, err := newKernelOut(x.Budget, m.elem, outShape)
	if err != nil {
		return nil, err
	}
	kernelReduceCount.Add(1)
	if out.Size() == 0 {
		return out, nil
	}
	blockWork := axisN * inner
	grainOuter := 1
	if blockWork > 0 {
		grainOuter = (ParallelGrain + blockWork - 1) / blockWork
	}
	var body func(olo, ohi int) error
	if m.elem == Int {
		src, dst := m.ints(), out.ints()
		body = func(olo, ohi int) error {
			reduceBlocks(kind, dst, src, olo, ohi, axisN, inner, foldIdentInt(kind))
			return nil
		}
	} else {
		src, dst := m.floats(), out.floats()
		body = func(olo, ohi int) error {
			reduceBlocks(kind, dst, src, olo, ohi, axisN, inner, foldIdentFloat(kind))
			return nil
		}
	}
	if err := runKernel(x, outer, grainOuter, body); err != nil {
		out.Recycle()
		return nil, err
	}
	return out, nil
}

// reduceBlocks reduces outer blocks [olo, ohi): block o covers source
// cells [o*axisN*inner, (o+1)*axisN*inner) and output cells
// [o*inner, (o+1)*inner); ident is the result over an empty axis (min
// and max of one were rejected before allocation). Axis elements combine
// in ascending order — the same order as ReduceAxisRef — so float sums
// are bit-identical to the oracle.
func reduceBlocks[T int64 | float64](kind FoldKind, dst, src []T, olo, ohi, axisN, inner int, ident T) {
	for o := olo; o < ohi; o++ {
		d := dst[o*inner : (o+1)*inner]
		if axisN == 0 {
			for j := range d {
				d[j] = ident
			}
			continue
		}
		base := o * axisN * inner
		if inner == 1 {
			// Last-axis reduction: one contiguous run per output cell.
			run := src[base : base+axisN]
			acc := run[0]
			switch kind {
			case FoldAdd:
				for _, v := range run[1:] {
					acc += v
				}
			case FoldMul:
				for _, v := range run[1:] {
					acc *= v
				}
			case FoldMin:
				for _, v := range run[1:] {
					if !(acc < v) {
						acc = v
					}
				}
			default:
				for _, v := range run[1:] {
					if acc < v {
						acc = v
					}
				}
			}
			d[0] = acc
			continue
		}
		// Interior axis: combine contiguous inner blocks into d.
		copy(d, src[base:base+inner])
		for a := 1; a < axisN; a++ {
			s := src[base+a*inner : base+(a+1)*inner]
			switch kind {
			case FoldAdd:
				for j, v := range s {
					d[j] += v
				}
			case FoldMul:
				for j, v := range s {
					d[j] *= v
				}
			case FoldMin:
				for j, v := range s {
					if !(d[j] < v) {
						d[j] = v
					}
				}
			default:
				for j, v := range s {
					if d[j] < v {
						d[j] = v
					}
				}
			}
		}
	}
}

// mmRecCutoff: a matmul whose k and n dimensions both exceed this
// enters the blocked-recursive split; below it mmBase's k-blocking is
// already cache-sufficient.
const mmRecCutoff = 512

// mmRecBase is the sub-block edge at which recursion bottoms out into
// mmBase (a 256² float tile of each operand is 512 KB —
// L2-resident on current cores).
const mmRecBase = 256

// mmBlockK is the k-dimension block size of the matmul kernels: one
// block of b's rows (mmBlockK x n cells) is streamed repeatedly against
// a block of output rows while it is still cache-resident.
const mmBlockK = 128

// mmRows computes output rows [rlo, rhi) of dst = a x b — the entry
// point of MatMulExec's row-parallel driver, for int64 and float64
// alike. Rows are cleared here (outputs are not pre-zeroed) and
// accumulated by mmBase over the whole block, or through the recursive
// split when k and n exceed mmRecCutoff.
func mmRows[T int64 | float64](dst, a, b []T, rlo, rhi, kk, n int) {
	clear(dst[rlo*n : rhi*n])
	if kk > mmRecCutoff && n > mmRecCutoff {
		mmRec(dst, a, b, rlo, rhi, 0, kk, 0, n, kk, n, n)
		return
	}
	mmBase(dst, a, b, rlo, rhi, 0, kk, 0, n, kk, n, n)
}

// mmRec multiplies the sub-block dst[i0:i1, j0:j1] += a[i0:i1, k0:k1]
// × b[k0:k1, j0:j1] by halving the largest extent until every extent
// fits mmRecBase (cache-oblivious: every level's working set halves).
// dst rows must be cleared by the caller. k splits run sequentially,
// the lower half first — both halves accumulate into the same dst
// cells, and every cell keeps adding its products in ascending k.
func mmRec[T int64 | float64](dst, a, b []T, i0, i1, k0, k1, j0, j1, lda, ldb, ldd int) {
	di, dk, dj := i1-i0, k1-k0, j1-j0
	if di <= mmRecBase && dk <= mmRecBase && dj <= mmRecBase {
		mmBase(dst, a, b, i0, i1, k0, k1, j0, j1, lda, ldb, ldd)
		return
	}
	switch {
	case di >= dk && di >= dj:
		mid := i0 + di/2
		mmRec(dst, a, b, i0, mid, k0, k1, j0, j1, lda, ldb, ldd)
		mmRec(dst, a, b, mid, i1, k0, k1, j0, j1, lda, ldb, ldd)
	case dj >= dk:
		mid := j0 + dj/2
		mmRec(dst, a, b, i0, i1, k0, k1, j0, mid, lda, ldb, ldd)
		mmRec(dst, a, b, i0, i1, k0, k1, mid, j1, lda, ldb, ldd)
	default:
		mid := k0 + dk/2
		mmRec(dst, a, b, i0, i1, k0, mid, j0, j1, lda, ldb, ldd)
		mmRec(dst, a, b, i0, i1, mid, k1, j0, j1, lda, ldb, ldd)
	}
}

// mmBase accumulates the sub-block dst[i0:i1, j0:j1] += a[i0:i1, k0:k1]
// × b[k0:k1, j0:j1] with leading dimensions lda, ldb, ldd, block by
// block over k (mmBlockK rows of b stay cache-resident). Within a block
// it takes two output rows and four k at a time (mm2x4): each cell is
// loaded and stored once per four products instead of once per product.
// A lone last row runs mm1x4 and the k left over past the last four
// run mm1x1. Every cell still adds its products one at a time in
// ascending k, so results are bit-identical to MatMulRef's i-j-k loop.
// The loops over j live in leaf functions that take only slices, a
// stride and scalars: inlined here, beside this function's twelve live
// parameters, the 2×4 loop spills its counter to the stack.
func mmBase[T int64 | float64](dst, a, b []T, i0, i1, k0, k1, j0, j1, lda, ldb, ldd int) {
	w := j1 - j0
	for kb := k0; kb < k1; kb += mmBlockK {
		ke := min(kb+mmBlockK, k1)
		i := i0
		for ; i+2 <= i1; i += 2 {
			r0, r1 := dst[i*ldd+j0:][:w], dst[(i+1)*ldd+j0:][:w]
			a0, a1 := a[i*lda:], a[(i+1)*lda:]
			k := kb
			for ; k+4 <= ke; k += 4 {
				mm2x4(r0, r1, b[k*ldb+j0:], ldb, (*[4]T)(a0[k:]), (*[4]T)(a1[k:]))
			}
			for ; k < ke; k++ {
				mm1x1(r0, b[k*ldb+j0:], a0[k])
				mm1x1(r1, b[k*ldb+j0:], a1[k])
			}
		}
		if i < i1 {
			r0, a0 := dst[i*ldd+j0:][:w], a[i*lda:]
			k := kb
			for ; k+4 <= ke; k += 4 {
				mm1x4(r0, b[k*ldb+j0:], ldb, (*[4]T)(a0[k:]))
			}
			for ; k < ke; k++ {
				mm1x1(r0, b[k*ldb+j0:], a0[k])
			}
		}
	}
}

// mm2x4 adds four products to each cell of two output rows: with c_t
// the row b[t*ldb:] of b, r0[j] gets p[0]·c_0[j] … p[3]·c_3[j] and
// r1[j] the same with q, left to right, one rounding per product and
// per add. Every other operand is resliced to len(r0), so the loop
// carries no bounds check.
func mm2x4[T int64 | float64](r0, r1, b []T, ldb int, p, q *[4]T) {
	n := len(r0)
	b0, b1, b2, b3 := b[:n], b[ldb:][:n], b[2*ldb:][:n], b[3*ldb:][:n]
	r1 = r1[:n]
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	for j, c0 := range b0 {
		c1, c2, c3 := b1[j], b2[j], b3[j]
		r0[j] = r0[j] + p0*c0 + p1*c1 + p2*c2 + p3*c3
		r1[j] = r1[j] + q0*c0 + q1*c1 + q2*c2 + q3*c3
	}
}

// mm1x4 is mm2x4 for one output row.
func mm1x4[T int64 | float64](r0, b []T, ldb int, p *[4]T) {
	n := len(r0)
	b0, b1, b2, b3 := b[:n], b[ldb:][:n], b[2*ldb:][:n], b[3*ldb:][:n]
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	for j, c0 := range b0 {
		r0[j] = r0[j] + p0*c0 + p1*b1[j] + p2*b2[j] + p3*b3[j]
	}
}

// mm1x1 adds av·b[j] to each cell r[j] of an output row.
func mm1x1[T int64 | float64](r, b []T, av T) {
	b = b[:len(r)]
	for j, bv := range b {
		r[j] += av * bv
	}
}
