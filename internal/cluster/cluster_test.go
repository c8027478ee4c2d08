package cluster

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/sim"
)

// blockMatrix builds a similarity matrix with nBlocks groups of blockSize
// items: within-group similarity high (0.9 ± noise), across-group low
// (0.1 ± noise).
func blockMatrix(nBlocks, blockSize int, seed int64) (*sim.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	n := nBlocks * blockSize
	truth := make([]int, n)
	for i := range truth {
		truth[i] = i / blockSize
	}
	m := sim.NewMatrixCtx(context.Background(), n, 1, func(i, j int) float64 {
		base := 0.1
		if truth[i] == truth[j] {
			base = 0.9
		}
		return clamp01(base + rng.NormFloat64()*0.03)
	})
	return m, truth
}

func clamp01(x float64) float64 { return math.Max(0, math.Min(1, x)) }

func coversExactly(t *testing.T, clusters [][]int, items []int) {
	t.Helper()
	seen := map[int]int{}
	for _, g := range clusters {
		if len(g) == 0 {
			t.Fatal("empty cluster returned")
		}
		for _, it := range g {
			seen[it]++
		}
	}
	if len(seen) != len(items) {
		t.Fatalf("clusters cover %d items, want %d", len(seen), len(items))
	}
	for _, it := range items {
		if seen[it] != 1 {
			t.Fatalf("item %d appears %d times", it, seen[it])
		}
	}
}

func allItems(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestKMedoidsRecoverBlocks(t *testing.T) {
	m, truth := blockMatrix(3, 8, 1)
	rng := rand.New(rand.NewSource(2))
	clusters := KMedoids(m, allItems(24), 3, rng)
	coversExactly(t, clusters, allItems(24))
	if len(clusters) != 3 {
		t.Fatalf("got %d clusters, want 3", len(clusters))
	}
	// Every cluster should be pure.
	for _, g := range clusters {
		for _, it := range g[1:] {
			if truth[it] != truth[g[0]] {
				t.Errorf("cluster mixes blocks %d and %d", truth[g[0]], truth[it])
			}
		}
	}
}

func TestKMedoidsEdgeCases(t *testing.T) {
	m, _ := blockMatrix(1, 4, 3)
	if got := KMedoids(m, nil, 3, rand.New(rand.NewSource(1))); got != nil {
		t.Errorf("empty items = %v", got)
	}
	// k >= n: singletons.
	cs := KMedoids(m, allItems(4), 10, rand.New(rand.NewSource(1)))
	if len(cs) != 4 {
		t.Errorf("k>n clusters = %d, want 4", len(cs))
	}
	// k <= 0 treated as 1.
	cs = KMedoids(m, allItems(4), 0, rand.New(rand.NewSource(1)))
	coversExactly(t, cs, allItems(4))
}

func TestBestResponseImprovesPotential(t *testing.T) {
	m, _ := blockMatrix(3, 6, 5)
	rng := rand.New(rand.NewSource(7))
	// Deliberately bad initial clustering: random split into 3.
	initial := make([][]int, 3)
	for _, it := range allItems(18) {
		c := rng.Intn(3)
		initial[c] = append(initial[c], it)
	}
	before := Potential(m, initial, 0.2)
	refined, sweeps := BestResponse(m, initial, 0.2)
	after := Potential(m, refined, 0.2)
	if after+1e-9 < before {
		t.Errorf("potential decreased: %v -> %v", before, after)
	}
	if sweeps == 0 {
		t.Error("expected at least one sweep")
	}
	coversExactly(t, refined, allItems(18))
}

func TestBestResponseNashStability(t *testing.T) {
	// After convergence, re-running from the equilibrium must not move
	// anyone (the definition of Nash equilibrium under best response).
	m, _ := blockMatrix(2, 6, 11)
	initial := KMedoids(m, allItems(12), 2, rand.New(rand.NewSource(3)))
	eq, _ := BestResponse(m, initial, 0.2)
	again, sweeps := BestResponse(m, eq, 0.2)
	if sweeps > 1 {
		t.Errorf("equilibrium was not stable: %d extra sweeps", sweeps)
	}
	if Potential(m, again, 0.2) != Potential(m, eq, 0.2) {
		t.Error("potential changed when re-running from equilibrium")
	}
}

func TestBestResponseSeparatesOutlier(t *testing.T) {
	// Items 0..3 mutually similar; item 4 dissimilar to everyone. The
	// outlier's marginal utility in the big cluster is negative, so with a
	// small positive γ it moves to the empty slot; block members have
	// positive marginal utility and stay.
	n := 5
	m := sim.NewMatrixCtx(context.Background(), n, 1, func(i, j int) float64 {
		if i < 4 && j < 4 {
			return 0.9
		}
		return 0.05
	})
	initial := [][]int{allItems(5), {}}
	refined, _ := BestResponse(m, initial, 0.05)
	coversExactly(t, refined, allItems(5))
	foundSingleton := false
	for _, g := range refined {
		if len(g) == 1 && g[0] == 4 {
			foundSingleton = true
		}
	}
	if !foundSingleton {
		t.Errorf("outlier not separated: %v", refined)
	}
}

func TestPotentialMatchesQualitySum(t *testing.T) {
	m, _ := blockMatrix(2, 3, 13)
	clusters := [][]int{{0, 1}, {2}, {3, 4, 5}}
	want := sim.Quality(m, clusters[0], 0.2) + sim.Quality(m, clusters[1], 0.2) + sim.Quality(m, clusters[2], 0.2)
	if got := Potential(m, clusters, 0.2); math.Abs(got-want) > 1e-12 {
		t.Errorf("Potential = %v, want %v", got, want)
	}
}

func TestBuildTreeStructure(t *testing.T) {
	m, truth := blockMatrix(3, 6, 17)
	cfg := Config{
		K:          3,
		Gamma:      0.2,
		Metrics:    []sim.Metric{sim.Distribution},
		Thresholds: []float64{0.6},
		UseGame:    true,
		Rng:        rand.New(rand.NewSource(2)),
	}
	root := BuildTree([]*sim.Matrix{m}, cfg)
	if len(root.Members) != 18 {
		t.Fatalf("root members = %d", len(root.Members))
	}
	leaves := root.Leaves()
	var leafItems []int
	for _, l := range leaves {
		leafItems = append(leafItems, l.Members...)
	}
	coversExactly(t, [][]int{leafItems}, allItems(18))
	if len(root.Children) != 3 {
		t.Fatalf("root children = %d, want 3 blocks", len(root.Children))
	}
	for _, c := range root.Children {
		for _, it := range c.Members[1:] {
			if truth[it] != truth[c.Members[0]] {
				t.Error("child mixes blocks")
			}
		}
		if c.Parent != root {
			t.Error("parent pointer wrong")
		}
	}
}

func TestBuildTreeMultiLevel(t *testing.T) {
	// Two metrics: metric 0 separates {0..8} vs {9..17} weakly (quality
	// below threshold so children are re-clustered); metric 1 separates
	// finer blocks of 3.
	n := 18
	m0 := sim.NewMatrixCtx(context.Background(), n, 1, func(i, j int) float64 {
		if (i < 9) == (j < 9) {
			return 0.5 // deliberately below the 0.6 threshold
		}
		return 0.05
	})
	m1 := sim.NewMatrixCtx(context.Background(), n, 1, func(i, j int) float64 {
		if i/3 == j/3 {
			return 0.95
		}
		return 0.05
	})
	cfg := Config{
		K:          3,
		Gamma:      0.2,
		Metrics:    []sim.Metric{sim.Distribution, sim.Spatial},
		Thresholds: []float64{0.6, 0.6},
		UseGame:    true,
		MinSize:    2,
		Rng:        rand.New(rand.NewSource(5)),
	}
	root := BuildTree([]*sim.Matrix{m0, m1}, cfg)
	if d := depth(root); d < 3 {
		t.Fatalf("tree depth = %d, want >= 3 (root, level-0 split, level-1 split)\n%s", d, root)
	}
	var leafItems []int
	for _, l := range root.Leaves() {
		leafItems = append(leafItems, l.Members...)
	}
	coversExactly(t, [][]int{leafItems}, allItems(n))
	// Leaves of the second level should be the fine blocks of 3.
	fine := 0
	for _, l := range root.Leaves() {
		if l.Level == 1 {
			fine++
			for _, it := range l.Members[1:] {
				if it/3 != l.Members[0]/3 {
					t.Errorf("level-1 leaf mixes fine blocks: %v", l.Members)
				}
			}
		}
	}
	if fine == 0 {
		t.Error("no level-1 leaves; second metric never applied")
	}
}

func TestBuildTreeNoGameVariant(t *testing.T) {
	m, _ := blockMatrix(2, 5, 23)
	cfg := Config{
		K:          2,
		Gamma:      0.2,
		Metrics:    []sim.Metric{sim.Distribution},
		Thresholds: []float64{0.6},
		UseGame:    false,
		Rng:        rand.New(rand.NewSource(4)),
	}
	root := BuildTree([]*sim.Matrix{m}, cfg)
	var leafItems []int
	for _, l := range root.Leaves() {
		leafItems = append(leafItems, l.Members...)
	}
	coversExactly(t, [][]int{leafItems}, allItems(10))
}

func TestBuildTreePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BuildTree(nil, DefaultConfig(rand.New(rand.NewSource(1))))
}

// depth is the height of the subtree rooted at n (a leaf has depth 1).
func depth(n *TreeNode) int {
	d := 0
	for _, c := range n.Children {
		d = max(d, depth(c))
	}
	return d + 1
}

func TestTreeTraversals(t *testing.T) {
	root := &TreeNode{Members: []int{0, 1, 2}}
	c1 := &TreeNode{Members: []int{0}, Parent: root}
	c2 := &TreeNode{Members: []int{1, 2}, Parent: root}
	c21 := &TreeNode{Members: []int{1}, Parent: c2}
	root.Children = []*TreeNode{c1, c2}
	c2.Children = []*TreeNode{c21}

	leaves := root.Leaves()
	if len(leaves) != 2 || leaves[0] != c1 || leaves[1] != c21 {
		t.Errorf("Leaves = %v", leaves)
	}
	var order []*TreeNode
	root.PostOrder(func(n *TreeNode) { order = append(order, n) })
	if len(order) != 4 || order[len(order)-1] != root || order[0] != c1 {
		t.Error("post-order wrong")
	}
	if d := depth(root); d != 3 {
		t.Errorf("depth = %d", d)
	}
	if s := root.String(); len(s) == 0 {
		t.Error("String empty")
	}
}

func TestSoftKMeansSeparatesGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var x []nn.Vector
	for i := 0; i < 30; i++ {
		cx := 0.0
		if i >= 15 {
			cx = 10
		}
		x = append(x, nn.Vector{cx + rng.NormFloat64()*0.5, rng.NormFloat64() * 0.5})
	}
	assign, centers := SoftKMeans(x, 2, 2, 50, rng)
	if len(centers) != 2 {
		t.Fatalf("centers = %d", len(centers))
	}
	// All of the first 15 should share a label distinct from the last 15.
	for i := 1; i < 15; i++ {
		if assign[i] != assign[0] {
			t.Fatalf("first block split: %v", assign)
		}
	}
	for i := 16; i < 30; i++ {
		if assign[i] != assign[15] {
			t.Fatalf("second block split: %v", assign)
		}
	}
	if assign[0] == assign[15] {
		t.Error("blocks merged")
	}
}

func TestSoftKMeansEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, c := SoftKMeans(nil, 3, 2, 10, rng)
	if a != nil || c != nil {
		t.Error("empty input should return nils")
	}
	x := []nn.Vector{{1}, {2}}
	a, c = SoftKMeans(x, 5, 2, 10, rng) // k clamped to n
	if len(c) != 2 || len(a) != 2 {
		t.Errorf("clamped k: %d centers", len(c))
	}
	a, _ = SoftKMeans(x, 0, 0, 0, rng) // all defaults
	if len(a) != 2 {
		t.Error("defaulted params failed")
	}
}

func TestGroups(t *testing.T) {
	gs := Groups([]int{0, 1, 0, 2}, 3)
	if len(gs) != 3 {
		t.Fatalf("groups = %v", gs)
	}
	if len(gs[0]) != 2 || gs[0][0] != 0 || gs[0][1] != 2 {
		t.Errorf("group 0 = %v", gs[0])
	}
	// Empty clusters dropped.
	gs = Groups([]int{0, 0}, 3)
	if len(gs) != 1 {
		t.Errorf("groups with empties = %v", gs)
	}
}
