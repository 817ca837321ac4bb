package ode

import (
	"cmp"
	"errors"
	"math"
	"slices"
)

// sparseLU is a pattern-reusing sparse LU factorization of the Rosenbrock
// shifted matrix M = I − h·d·J, where J is a Jacobian with a fixed CSC
// sparsity pattern. Because the pattern never changes across an integration,
// the symbolic analysis — a fill-reducing symmetric permutation P and the
// fill-in pattern of L and U for P·M·Pᵀ under left-looking Gilbert–Peierls
// elimination without pivoting — runs once in newSparseLU; every later
// (h, J) combination reuses it, so setShifted+factor+solve allocate nothing
// (pinned by TestStiffInnerLoopAllocs).
//
// No pivoting is safe here in the same sense the W-method itself is: the
// shifted matrix is I − h·d·J with h·d small against the fast eigenvalues
// the factorization matters for, so it is strongly diagonally weighted, and
// a symmetric permutation keeps that diagonal on the diagonal. If a pivot
// still collapses, factor reports errSingular and the integrator rejects the
// step and shrinks h rather than patching the factorization.
type sparseLU struct {
	n int

	// perm is the elimination order: row and column k of the factored
	// matrix are row and column perm[k] of M.
	perm []int32

	// P·M·Pᵀ in CSC. Pattern = permuted pattern(J) ∪ diagonal. vals is
	// refilled by setShifted; jmap[e] is the slot of J's e-th nonzero and
	// diagSlot[k] the slot of (k,k).
	mColPtr  []int32
	mRowIdx  []int32
	mVals    []float64
	jmap     []int32
	diagSlot []int32

	// L strictly lower and U upper (diagonal last in each column), both CSC
	// with ascending rows; the patterns come from the symbolic phase and the
	// values are rewritten by every factor call.
	lColPtr []int32
	lRowIdx []int32
	lVals   []float64
	uColPtr []int32
	uRowIdx []int32
	uVals   []float64

	// x is the dense accumulator column of the numeric phase; also the
	// permuted scratch vector of solve.
	x []float64
}

// errSingular reports a collapsed pivot during numeric factorization. The
// integrator treats it like an error-control rejection: shrink h and retry.
var errSingular = errors.New("ode: singular shifted matrix (zero pivot)")

// minPivot is the absolute pivot magnitude below which factor gives up.
// The shifted matrix has unit diagonal weighting, so a pivot this small
// means genuine (near-)singularity, not scaling.
const minPivot = 1e-280

// fillOrder returns a deterministic fill-reducing elimination order for an
// n-column CSC pattern: the vertices of the graph of pattern(J + Jᵀ) sorted
// by ascending degree (distinct off-diagonal neighbours), ties broken by
// index. Eliminating low-degree vertices first keeps the hubs — the shared
// species many reactions touch — for last, where their fill is confined to
// the trailing block. On the repo's networks this static order fills about
// as little as a greedy minimum-degree order (DESIGN.md, "Sparse LU").
func fillOrder(n int, colPtr, rowIdx []int32) []int32 {
	// Each off-diagonal entry (r,p) is the edge {r,p}; J may hold it twice,
	// as (r,p) and (p,r), so dedupe before counting.
	var edges [][2]int32
	for p := int32(0); p < int32(n); p++ {
		for _, r := range rowIdx[colPtr[p]:colPtr[p+1]] {
			if r != p {
				edges = append(edges, [2]int32{min(r, p), max(r, p)})
			}
		}
	}
	slices.SortFunc(edges, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	deg := make([]int32, n)
	for _, e := range slices.Compact(edges) {
		deg[e[0]]++
		deg[e[1]]++
	}

	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		return cmp.Or(cmp.Compare(deg[a], deg[b]), cmp.Compare(a, b))
	})
	return perm
}

// newSparseLU orders a Jacobian with the given n-column CSC sparsity
// structure, builds the permuted shifted-matrix pattern and computes the
// symbolic L/U fill pattern.
func newSparseLU(n int, jColPtr, jRowIdx []int32) *sparseLU {
	lu := &sparseLU{n: n, perm: fillOrder(n, jColPtr, jRowIdx)}
	iperm := make([]int32, n)
	for k, p := range lu.perm {
		iperm[p] = int32(k)
	}

	// Pattern of P·M·Pᵀ, rows ascending per column: column k gathers the
	// J entries of column perm[k] under their permuted rows, plus the
	// diagonal when J lacks it. src is the J index, or -1 for that diagonal.
	type entry struct{ row, src int32 }
	lu.mColPtr = make([]int32, n+1)
	lu.jmap = make([]int32, len(jRowIdx))
	lu.diagSlot = make([]int32, n)
	mRows := make([]int32, 0, len(jRowIdx)+n)
	var col []entry
	for k := 0; k < n; k++ {
		p := lu.perm[k]
		col = append(col[:0], entry{int32(k), -1})
		for e := jColPtr[p]; e < jColPtr[p+1]; e++ {
			if r := iperm[jRowIdx[e]]; r == int32(k) {
				col[0].src = e
			} else {
				col = append(col, entry{r, e})
			}
		}
		slices.SortFunc(col, func(a, b entry) int { return cmp.Compare(a.row, b.row) })
		lu.mColPtr[k] = int32(len(mRows))
		for _, c := range col {
			if c.row == int32(k) {
				lu.diagSlot[k] = int32(len(mRows))
			}
			if c.src >= 0 {
				lu.jmap[c.src] = int32(len(mRows))
			}
			mRows = append(mRows, c.row)
		}
	}
	lu.mColPtr[n] = int32(len(mRows))
	lu.mRowIdx = mRows
	lu.mVals = make([]float64, len(mRows))

	// Symbolic elimination: with no pivoting the fill pattern of column j is
	// the rows of (P·M·Pᵀ)(:,j) closed under "k in pattern, k < j ⇒ rows of
	// L(:,k) in pattern". Left-looking order makes each L column complete
	// before it is merged. The O(n) sweep per column is fine: this runs once per
	// integration, not per step.
	mark := make([]bool, n)
	lu.lColPtr = make([]int32, n+1)
	lu.uColPtr = make([]int32, n+1)
	var lRows, uRows []int32
	for j := 0; j < n; j++ {
		for e := lu.mColPtr[j]; e < lu.mColPtr[j+1]; e++ {
			mark[lu.mRowIdx[e]] = true
		}
		for k := 0; k < j; k++ {
			if !mark[k] {
				continue
			}
			for e := lu.lColPtr[k]; e < lu.lColPtr[k+1]; e++ {
				mark[lu.lRowIdx[e]] = true
			}
		}
		for k := 0; k <= j; k++ { // ascending; diagonal lands last
			if mark[k] {
				uRows = append(uRows, int32(k))
			}
		}
		for i := j + 1; i < n; i++ {
			if mark[i] {
				lRows = append(lRows, int32(i))
			}
		}
		lu.uColPtr[j+1] = int32(len(uRows))
		lu.lColPtr[j+1] = int32(len(lRows))
		for i := range mark {
			mark[i] = false
		}
		// Reassign each column: append may have moved the backing array, and
		// the next column's merge reads lu.lRowIdx.
		lu.lRowIdx = lRows
		lu.uRowIdx = uRows
	}
	lu.lVals = make([]float64, len(lRows))
	lu.uVals = make([]float64, len(uRows))
	lu.x = make([]float64, n)
	return lu
}

// setShifted fills P·M·Pᵀ, M = I − hd·J, from the Jacobian nonzeros. jnz
// must be in the CSC order newSparseLU was built from.
func (lu *sparseLU) setShifted(hd float64, jnz []float64) {
	for i := range lu.mVals {
		lu.mVals[i] = 0
	}
	for e, slot := range lu.jmap {
		lu.mVals[slot] = -hd * jnz[e]
	}
	for p := 0; p < lu.n; p++ {
		lu.mVals[lu.diagSlot[p]] += 1
	}
}

// factor runs the numeric left-looking factorization P·M·Pᵀ = L·U over the
// precomputed symbolic pattern. Without pivoting the ascending row order of
// each U column is a valid topological order: the update from pivot k only
// touches rows > k, so by the time row k is read it is final.
func (lu *sparseLU) factor() error {
	x := lu.x
	for j := 0; j < lu.n; j++ {
		// Zero the pattern positions, scatter (P·M·Pᵀ)(:,j).
		for e := lu.uColPtr[j]; e < lu.uColPtr[j+1]; e++ {
			x[lu.uRowIdx[e]] = 0
		}
		for e := lu.lColPtr[j]; e < lu.lColPtr[j+1]; e++ {
			x[lu.lRowIdx[e]] = 0
		}
		for e := lu.mColPtr[j]; e < lu.mColPtr[j+1]; e++ {
			x[lu.mRowIdx[e]] = lu.mVals[e]
		}
		// Sparse triangular solve: eliminate with each pivot k < j present
		// in this column's U pattern, ascending.
		for e := lu.uColPtr[j]; e < lu.uColPtr[j+1]-1; e++ {
			k := lu.uRowIdx[e]
			xk := x[k]
			lu.uVals[e] = xk
			if xk == 0 {
				continue
			}
			// Ranging over the sliced column hoists the L-array bounds
			// checks out of the inner loop.
			lo, hi := lu.lColPtr[k], lu.lColPtr[k+1]
			rows, vals := lu.lRowIdx[lo:hi], lu.lVals[lo:hi]
			vals = vals[:len(rows)]
			for i, r := range rows {
				x[r] -= vals[i] * xk
			}
		}
		ujj := x[j]
		if math.Abs(ujj) < minPivot {
			return errSingular
		}
		lu.uVals[lu.uColPtr[j+1]-1] = ujj // diagonal is last in the column
		inv := 1 / ujj
		for e := lu.lColPtr[j]; e < lu.lColPtr[j+1]; e++ {
			lu.lVals[e] = x[lu.lRowIdx[e]] * inv
		}
	}
	return nil
}

// solve computes out = M⁻¹·b using the current factorization: it gathers b
// through P into x, solves L·U·x' = x in place, and scatters x' back through
// Pᵀ. b and out may alias. It allocates nothing.
func (lu *sparseLU) solve(b, out []float64) {
	x := lu.x
	for k, p := range lu.perm {
		x[k] = b[p]
	}
	// Forward: L·z = b, L unit lower triangular, column-oriented.
	for j := 0; j < lu.n; j++ {
		zj := x[j]
		if zj == 0 {
			continue
		}
		lo, hi := lu.lColPtr[j], lu.lColPtr[j+1]
		rows, vals := lu.lRowIdx[lo:hi], lu.lVals[lo:hi]
		vals = vals[:len(rows)]
		for i, r := range rows {
			x[r] -= vals[i] * zj
		}
	}
	// Backward: U·out = z, diagonal stored last per column.
	for j := lu.n - 1; j >= 0; j-- {
		xj := x[j] / lu.uVals[lu.uColPtr[j+1]-1]
		x[j] = xj
		if xj == 0 {
			continue
		}
		lo, hi := lu.uColPtr[j], lu.uColPtr[j+1]-1
		rows, vals := lu.uRowIdx[lo:hi], lu.uVals[lo:hi]
		vals = vals[:len(rows)]
		for i, r := range rows {
			x[r] -= vals[i] * xj
		}
	}
	for k, p := range lu.perm {
		out[p] = x[k]
	}
}

// nnzLU reports the fill of the factorization (len L + len U values), for
// diagnostics and tests.
func (lu *sparseLU) nnzLU() int { return len(lu.lVals) + len(lu.uVals) }
