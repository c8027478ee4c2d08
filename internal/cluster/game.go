package cluster

import "github.com/spatialcrowd/tamp/internal/sim"

// maxSweeps bounds BestResponse's full sweeps.
const maxSweeps = 100

// BestResponse refines an initial clustering by playing the n-player
// strategy game 𝒫 of §III-B to a Nash equilibrium (Algorithm 1, lines 6–11).
// The strategy set of every player (learning task) is the fixed set of
// cluster slots created by the k-medoids initialization; each player
// repeatedly moves to the slot where its marginal utility
// u(Γ_i, G) = Q(G∪{Γ_i}) − Q(G) (Eq. 5) is maximal.
// Slots may empty out and be re-entered (entering an empty slot is worth the
// singleton utility γ). Because the game is an exact potential game with
// potential Σ_G Q(G) (Theorem 1), this dynamic terminates.
//
// It returns the equilibrium clusters (empties removed) and the number of
// full best-response sweeps performed. maxSweeps bounds runtime defensively;
// the potential argument guarantees termination long before it.
func BestResponse(m *sim.Matrix, initial [][]int, gamma float64) ([][]int, int) {
	clusters := make([][]int, len(initial))
	where := map[int]int{}
	for ci, g := range initial {
		clusters[ci] = append([]int(nil), g...)
		for _, it := range g {
			where[it] = ci
		}
	}
	items := make([]int, 0, len(where))
	for _, g := range initial {
		items = append(items, g...)
	}

	sweeps := 0
	for ; sweeps < maxSweeps; sweeps++ {
		moved := false
		for _, it := range items {
			cur := where[it]
			// Utility of staying put.
			bestC, bestU := cur, utilityIn(m, clusters[cur], it, gamma, true)
			for ci := range clusters {
				if ci == cur {
					continue
				}
				if u := utilityIn(m, clusters[ci], it, gamma, false); u > bestU+1e-12 {
					bestU, bestC = u, ci
				}
			}
			if bestC != cur {
				clusters[cur] = removeInt(clusters[cur], it)
				clusters[bestC] = append(clusters[bestC], it)
				where[it] = bestC
				moved = true
			}
		}
		if !moved {
			break
		}
	}

	var out [][]int
	for _, g := range clusters {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out, sweeps
}

// utilityIn computes u(Γ_item, G): the quality gain of the cluster from
// item's membership. When member is true, the item is already in g;
// otherwise the gain is evaluated as if it joined.
func utilityIn(m *sim.Matrix, g []int, item int, gamma float64, member bool) float64 {
	if member {
		return sim.Utility(m, g, item, gamma)
	}
	with := make([]int, len(g)+1)
	copy(with, g)
	with[len(g)] = item
	return sim.Quality(m, with, gamma) - sim.Quality(m, g, gamma)
}

// Potential returns the potential function F_p = Σ_G Q(G) of the clustering
// game (Appendix A-A). Best-response moves never decrease it, which the
// tests exploit as the correctness invariant of the equilibrium search.
func Potential(m *sim.Matrix, clusters [][]int, gamma float64) float64 {
	var sum float64
	for _, g := range clusters {
		sum += sim.Quality(m, g, gamma)
	}
	return sum
}

func removeInt(xs []int, v int) []int {
	for i, x := range xs {
		if x == v {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}
