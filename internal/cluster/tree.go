package cluster

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/sim"
)

// TreeNode is one node of the learning task tree (Def. 6): the tuple
// T^t = (G, CH, fr, θ). Members holds the learning-task indexes of the
// node's cluster G, Children the list CH, Parent the father fr, and Theta
// the initialization weights θ of the mobility prediction model attached to
// this node (filled in by meta-training, nil until then).
type TreeNode struct {
	Members  []int
	Children []*TreeNode
	Parent   *TreeNode
	Theta    nn.Vector

	// Level records which similarity function F^s_j produced this node's
	// split from its parent (-1 for the root).
	Level int
}

// IsLeaf reports whether n has no children. Only leaves carry training data
// during TAML; interior nodes store initialization parameters only.
func (n *TreeNode) IsLeaf() bool { return len(n.Children) == 0 }

// Leaves appends all leaf nodes under n in depth-first order.
func (n *TreeNode) Leaves() []*TreeNode {
	if n.IsLeaf() {
		return []*TreeNode{n}
	}
	var out []*TreeNode
	for _, c := range n.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// PostOrder visits every node under n in depth-first post-order, the
// traversal used when placing a newly arrived worker's learning task.
func (n *TreeNode) PostOrder(visit func(*TreeNode)) {
	for _, c := range n.Children {
		c.PostOrder(visit)
	}
	visit(n)
}

// String renders the subtree structure for debugging.
func (n *TreeNode) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *TreeNode) render(b *strings.Builder, indent int) {
	fmt.Fprintf(b, "%s[lvl %d] %d tasks\n", strings.Repeat("  ", indent), n.Level, len(n.Members))
	for _, c := range n.Children {
		c.render(b, indent+1)
	}
}

// Config parameterizes GTMC (Algorithm 1).
type Config struct {
	// K is the number of clusters k-medoids seeds at each level.
	K int
	// Gamma is the singleton cluster utility γ of Eq. 4.
	Gamma float64
	// Metrics is the ordered similarity function list F^s. The paper's
	// best order is [Distribution, Spatial, LearningPath].
	Metrics []sim.Metric
	// Thresholds is Θ: a node whose cluster quality under its split metric
	// stays below Thresholds[j] is clustered further with metric j+1.
	// Must have len(Metrics) entries (the last is unused but kept for
	// symmetry with the paper's notation).
	Thresholds []float64
	// UseGame enables the best-response refinement after k-medoids. With
	// UseGame=false the builder degenerates to the multi-level k-means
	// baseline (the GTTAML-GT variant of §IV).
	UseGame bool
	// MinSize stops further clustering of nodes smaller than this: a leaf
	// must retain enough learning tasks for its meta-trained
	// initialization to be meaningful (0 = default 6).
	MinSize int
	// Rng drives k-medoids seeding. Required.
	Rng *rand.Rand
}

// DefaultConfig returns the configuration matching the paper's final
// experimental setting: k=4, γ=0.2, all three metrics in the order
// Sim_d, Sim_s, Sim_l, game refinement on.
func DefaultConfig(rng *rand.Rand) Config {
	return Config{
		K:          4,
		Gamma:      0.2,
		Metrics:    []sim.Metric{sim.Distribution, sim.Spatial, sim.LearningPath},
		Thresholds: []float64{0.6, 0.6, 0.6},
		UseGame:    true,
		MinSize:    6,
		Rng:        rng,
	}
}

// BuildTree runs GTMC (Algorithm 1): multi-level clustering of the learning
// tasks whose pairwise similarities under metric j are given by
// matrices[j] (indexed parallel to cfg.Metrics). It returns the root of the
// learning task tree covering items 0..n-1 where n = matrices[0].N.
func BuildTree(matrices []*sim.Matrix, cfg Config) *TreeNode {
	if len(matrices) == 0 || len(matrices) != len(cfg.Metrics) {
		panic("cluster: BuildTree needs one similarity matrix per metric")
	}
	n := matrices[0].N
	root := &TreeNode{Level: -1}
	for i := 0; i < n; i++ {
		root.Members = append(root.Members, i)
	}
	minSize := cfg.MinSize
	if minSize <= 0 {
		minSize = 6
	}

	type queueEntry struct {
		node *TreeNode
		j    int
	}
	queue := []queueEntry{{root, 0}}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		node, j := e.node, e.j
		if len(node.Members) < 2 || (node != root && len(node.Members) < minSize) {
			continue
		}
		m := matrices[j]
		subs := KMedoids(m, node.Members, cfg.K, cfg.Rng)
		if cfg.UseGame {
			subs, _ = BestResponse(m, subs, cfg.Gamma)
		}
		if len(subs) <= 1 {
			// The level-j metric finds no structure here; the node stays a
			// leaf of this branch.
			continue
		}
		for _, g := range subs {
			child := &TreeNode{Members: g, Parent: node, Level: j}
			node.Children = append(node.Children, child)
			if j+1 < len(cfg.Metrics) && sim.Quality(m, g, cfg.Gamma) < cfg.Thresholds[j] {
				queue = append(queue, queueEntry{child, j + 1})
			}
		}
	}
	return root
}
