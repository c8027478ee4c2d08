package assign

import (
	"math"
	"slices"
)

// Matcher solves maximum-weight bipartite matching over sparse candidate
// edge lists with a reusable workspace: compaction tables, the CSR adjacency,
// and the Hungarian potentials/slack arrays all persist across calls, so the
// steady-state KM inner loop allocates nothing no matter how many batches it
// solves (Algorithm 4's stage-2 loop calls KM once per ε candidates).
//
// The algorithm is the potentials-based Kuhn–Munkres method, but run on edge
// lists instead of a dense cost matrix: each row's Dijkstra-style relaxation
// touches only its adjacency, and the delta scan walks the list of columns
// actually reached by the alternating tree instead of every column. Rows that
// should stay unmatched are modelled by one virtual zero-weight column per
// row (adjacent only to that row), which replaces the dense padding matrix —
// there is no O(rows·cols) cost allocation or traversal anywhere.
//
// Column labels: real column c is j = c+1; row i's virtual column is
// j = vcap+i, where vcap is a sticky capacity that only grows (it starts at
// the first batch's column count and is padded on growth). Keeping vcap
// fixed across calls makes every column label independent of how many rows
// and columns a later batch adds. The labelling is pure bookkeeping — the
// matching is identical to the classic nc-offset formulation.
//
// Ids must be non-negative and slice-index-like (scratch is sized by the
// largest id seen); negative ids and non-positive weights are ignored. A
// Matcher is not safe for concurrent use.
type Matcher struct {
	// id compaction: id → dense index+1 (0 = unseen), reset after each call.
	taskSlot, workerSlot []int32
	taskIDs, workerIDs   []int32

	// CSR adjacency over the smaller side as rows.
	rowStart []int32
	rowEnd   []int32 // end after per-row max-dedupe compaction
	adjCol   []int32
	adjW     []float64
	colPos   []int32 // per-row dedupe scratch: col → adj position+1

	// solver state, 1-based like the classic formulation: columns 1..nc are
	// real, vcap+1..vcap+nr virtual, 0 is the augmenting-tree root.
	vcap     int32
	u, v     []float64
	p, way   []int32
	minv     []float64
	used     []bool
	touched  []int32 // columns with finite minv this row (reset list)
	reach    []int32 // touched ∧ not yet used: the live delta-scan frontier
	pathCols []int32 // used columns this row, root included (potential updates)
}

// Match appends the maximum-weight matching over edges to out and returns
// the extended slice; the appended pairs are sorted by task id. Only out's
// backing array escapes — every internal buffer is reused on the next call,
// so callers may hold the returned pairs as long as they like.
func (m *Matcher) Match(edges []Edge, out []Pair) []Pair {
	if len(edges) == 0 {
		return out
	}
	maxW := m.compact(edges)
	if len(m.taskIDs) == 0 {
		return out
	}
	// Orient the smaller side as rows: the outer loop runs once per row, so
	// batches pooling far more tasks than workers (or vice versa) solve in
	// O(smaller · reached) rather than O(larger · ...).
	transposed := len(m.taskIDs) > len(m.workerIDs)
	nr, nc := m.buildAdjacency(edges, transposed)
	if int32(nc) > m.vcap {
		m.vcap = int32(nc + nc/2 + 8)
	}
	m.initPotentials(nr, nc)
	for i := 1; i <= nr; i++ {
		m.runRow(i, maxW)
	}
	out = m.extract(out, nc, transposed)
	m.resetSlots()
	return out
}

// compact assigns dense indexes to task and worker ids in first-appearance
// order over the valid edges and returns the weight ceiling. m.taskIDs is
// left empty when no edge is valid.
func (m *Matcher) compact(edges []Edge) (maxW float64) {
	m.taskIDs = m.taskIDs[:0]
	m.workerIDs = m.workerIDs[:0]
	for i := range edges {
		e := &edges[i]
		if e.Weight <= 0 || e.Task < 0 || e.Worker < 0 {
			continue
		}
		if e.Task >= len(m.taskSlot) {
			m.taskSlot = growZero(m.taskSlot, e.Task+1)
		}
		if m.taskSlot[e.Task] == 0 {
			m.taskIDs = append(m.taskIDs, int32(e.Task))
			m.taskSlot[e.Task] = int32(len(m.taskIDs))
		}
		if e.Worker >= len(m.workerSlot) {
			m.workerSlot = growZero(m.workerSlot, e.Worker+1)
		}
		if m.workerSlot[e.Worker] == 0 {
			m.workerIDs = append(m.workerIDs, int32(e.Worker))
			m.workerSlot[e.Worker] = int32(len(m.workerIDs))
		}
		if e.Weight > maxW {
			maxW = e.Weight
		}
	}
	return maxW
}

// buildAdjacency builds the CSR adjacency over the chosen orientation:
// count, prefix, fill, then max-dedupe duplicate (row, col) edges in place
// (first occurrence keeps its slot, heaviest weight wins — the same
// reduction the dense matrix applied).
func (m *Matcher) buildAdjacency(edges []Edge, transposed bool) (nr, nc int) {
	rowSlot, colSlot := m.taskSlot, m.workerSlot
	nr, nc = len(m.taskIDs), len(m.workerIDs)
	if transposed {
		rowSlot, colSlot = m.workerSlot, m.taskSlot
		nr, nc = nc, nr
	}
	m.rowStart = growInt32s(m.rowStart, nr+1)
	m.rowEnd = growInt32s(m.rowEnd, nr)
	for i := 0; i <= nr; i++ {
		m.rowStart[i] = 0
	}
	for i := range edges {
		e := &edges[i]
		if e.Weight <= 0 || e.Task < 0 || e.Worker < 0 {
			continue
		}
		r := rowOf(e, transposed, rowSlot)
		m.rowStart[r+1]++
	}
	for i := 0; i < nr; i++ {
		m.rowStart[i+1] += m.rowStart[i]
	}
	total := int(m.rowStart[nr])
	m.adjCol = growInt32s(m.adjCol, total)
	m.adjW = growFloats(m.adjW, total)
	copy(m.rowEnd[:nr], m.rowStart[1:nr+1])
	// Fill back-to-front per row using rowEnd as cursors.
	for i := len(edges) - 1; i >= 0; i-- {
		e := &edges[i]
		if e.Weight <= 0 || e.Task < 0 || e.Worker < 0 {
			continue
		}
		r := rowOf(e, transposed, rowSlot)
		var c int
		if transposed {
			c = int(colSlot[e.Task]) - 1
		} else {
			c = int(colSlot[e.Worker]) - 1
		}
		m.rowEnd[r]--
		slot := m.rowEnd[r]
		m.adjCol[slot] = int32(c)
		m.adjW[slot] = e.Weight
	}
	// rowEnd cursors have walked back to rowStart; rebuild rowEnd as the
	// post-dedupe end of each row.
	m.colPos = growZero(m.colPos, nc)
	for r := 0; r < nr; r++ {
		start, end := m.rowStart[r], m.rowStart[r+1]
		write := start
		for k := start; k < end; k++ {
			c := m.adjCol[k]
			if pos := m.colPos[c]; pos != 0 {
				if m.adjW[k] > m.adjW[pos-1] {
					m.adjW[pos-1] = m.adjW[k]
				}
				continue
			}
			m.adjCol[write] = c
			m.adjW[write] = m.adjW[k]
			write++
			m.colPos[c] = write // position+1
		}
		for k := start; k < write; k++ {
			m.colPos[m.adjCol[k]] = 0
		}
		m.rowEnd[r] = write
	}
	return nr, nc
}

// initPotentials zeroes the solver state for a fresh solve over nr rows and
// vcap+nr columns.
func (m *Matcher) initPotentials(nr, nc int) {
	M := int(m.vcap) + nr
	m.u = growFloats(m.u, nr+1)
	m.v = growFloats(m.v, M+1)
	m.p = growInt32s(m.p, M+1)
	m.way = growInt32s(m.way, M+1)
	m.minv = growFloats(m.minv, M+1)
	m.used = growBools(m.used, M+1)
	inf := math.Inf(1)
	for i := 0; i <= nr; i++ {
		m.u[i] = 0
	}
	// Only the columns this solve can touch need resetting: the root (0),
	// the compacted real columns 1..nc, and the virtual band vcap+1..vcap+nr.
	// runRow never reads or writes the gap in between, so small batches —
	// the ε-sized stage-2 flushes — pay O(nr+nc), not O(vcap), regardless of
	// how large a previous solve grew the arrays.
	m.resetColRange(0, nc, inf)
	m.resetColRange(int(m.vcap)+1, M, inf)
}

// resetColRange clears the per-column solver state for columns lo..hi.
func (m *Matcher) resetColRange(lo, hi int, inf float64) {
	for j := lo; j <= hi; j++ {
		m.v[j] = 0
		m.p[j] = 0
		m.way[j] = 0
		m.minv[j] = inf
		m.used[j] = false
	}
}

// runRow grows the alternating tree from row i until it augments, updating
// potentials and the matching in place. Rows must be run in order 1..nr;
// the state after row i depends only on rows 1..i.
func (m *Matcher) runRow(i int, maxW float64) {
	inf := math.Inf(1)
	m.p[0] = int32(i)
	m.touched = m.touched[:0]
	m.reach = m.reach[:0]
	m.pathCols = m.pathCols[:0]
	j0 := 0
	for {
		m.used[j0] = true
		m.pathCols = append(m.pathCols, int32(j0))
		i0 := int(m.p[j0])
		// Relax i0's sparse adjacency plus its virtual column.
		row := i0 - 1
		for k := m.rowStart[row]; k < m.rowEnd[row]; k++ {
			j := int(m.adjCol[k]) + 1
			if m.used[j] {
				continue
			}
			cur := (maxW - m.adjW[k]) - m.u[i0] - m.v[j]
			if cur < m.minv[j] {
				if math.IsInf(m.minv[j], 1) {
					m.touched = append(m.touched, int32(j))
					m.reach = append(m.reach, int32(j))
				}
				m.minv[j] = cur
				m.way[j] = int32(j0)
			}
		}
		if jv := int(m.vcap) + i0; !m.used[jv] {
			cur := maxW - m.u[i0] - m.v[jv]
			if cur < m.minv[jv] {
				if math.IsInf(m.minv[jv], 1) {
					m.touched = append(m.touched, int32(jv))
					m.reach = append(m.reach, int32(jv))
				}
				m.minv[jv] = cur
				m.way[jv] = int32(j0)
			}
		}
		// Delta scan over the live frontier, compacting out columns the
		// tree has since absorbed.
		delta, j1, w := inf, -1, 0
		for _, j := range m.reach {
			if m.used[j] {
				continue
			}
			m.reach[w] = j
			w++
			if m.minv[j] < delta {
				delta = m.minv[j]
				j1 = int(j)
			}
		}
		m.reach = m.reach[:w]
		if j1 < 0 {
			// Unreachable only if the virtual columns were exhausted,
			// which the one-virtual-per-row construction rules out; kept
			// as a defensive exit (row stays unmatched).
			break
		}
		for _, j := range m.pathCols {
			m.u[m.p[j]] += delta
			m.v[j] -= delta
		}
		for _, j := range m.reach {
			m.minv[j] -= delta
		}
		j0 = j1
		if m.p[j0] == 0 {
			break
		}
	}
	if m.p[j0] != 0 {
		// Defensive-exit path above: nothing to augment.
		j0 = 0
	}
	for j0 != 0 {
		j1 := int(m.way[j0])
		m.p[j0] = m.p[j1]
		j0 = j1
	}
	// Per-row reset: only the columns this row's tree touched.
	for _, j := range m.touched {
		m.minv[j] = inf
		m.used[j] = false
		m.way[j] = 0
	}
	m.used[0] = false
}

// extract appends the real-column matches to out, sorted by task id;
// virtual columns are unmatched rows.
func (m *Matcher) extract(out []Pair, nc int, transposed bool) []Pair {
	rowIDs, colIDs := m.taskIDs, m.workerIDs
	if transposed {
		rowIDs, colIDs = m.workerIDs, m.taskIDs
	}
	from := len(out)
	out = slices.Grow(out, min(len(rowIDs), nc)) // one growth step, not log-many
	for j := 1; j <= nc; j++ {
		r := int(m.p[j])
		if r == 0 {
			continue
		}
		row, col := r-1, j-1
		var w float64
		for k := m.rowStart[row]; k < m.rowEnd[row]; k++ {
			if int(m.adjCol[k]) == col {
				w = m.adjW[k]
				break
			}
		}
		task, worker := int(rowIDs[row]), int(colIDs[col])
		if transposed {
			task, worker = worker, task
		}
		out = append(out, Pair{Task: task, Worker: worker, Weight: w})
	}
	sortPairsByTask(out[from:])
	return out
}

// resetSlots clears the compaction tables for the next call.
func (m *Matcher) resetSlots() {
	for _, id := range m.taskIDs {
		m.taskSlot[id] = 0
	}
	for _, id := range m.workerIDs {
		m.workerSlot[id] = 0
	}
}

func rowOf(e *Edge, transposed bool, rowSlot []int32) int {
	if transposed {
		return int(rowSlot[e.Worker]) - 1
	}
	return int(rowSlot[e.Task]) - 1
}

// sortPairsByTask sorts in place by task id without allocating (tasks are
// unique within a matching, so no tie-break is needed). Insertion sort below
// a small threshold, median-of-three quicksort above it.
func sortPairsByTask(ps []Pair) {
	for len(ps) > 12 {
		// Median-of-three pivot to dodge quadratic behaviour on the
		// nearly-sorted output the extraction loop tends to produce.
		a, b, c := 0, len(ps)/2, len(ps)-1
		if ps[b].Task < ps[a].Task {
			ps[a], ps[b] = ps[b], ps[a]
		}
		if ps[c].Task < ps[b].Task {
			ps[b], ps[c] = ps[c], ps[b]
			if ps[b].Task < ps[a].Task {
				ps[a], ps[b] = ps[b], ps[a]
			}
		}
		pivot := ps[b].Task
		i, j := 0, len(ps)-1
		for i <= j {
			for ps[i].Task < pivot {
				i++
			}
			for ps[j].Task > pivot {
				j--
			}
			if i <= j {
				ps[i], ps[j] = ps[j], ps[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j < len(ps)-i {
			sortPairsByTask(ps[:j+1])
			ps = ps[i:]
		} else {
			sortPairsByTask(ps[i:])
			ps = ps[:j+1]
		}
	}
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Task < ps[j-1].Task; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// growZero grows s to length n, guaranteeing the new tail is zeroed (Go
// zeroes fresh allocations; reslicing within capacity keeps old zeros because
// every user resets its marks before returning).
func growZero(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([]int32, n, n+n/2)
	copy(ns, s)
	return ns
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
