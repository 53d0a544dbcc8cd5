package stripe

import (
	"errors"
	"fmt"
)

// Placement assigns bricks to I/O servers when a file is created.
type Placement interface {
	// Assign returns, for each of numBricks bricks, the index of the
	// server that stores it.
	Assign(numBricks, numServers int) ([]int, error)
	// Name identifies the algorithm in the catalog.
	Name() string
}

// RoundRobin is the straightforward striping algorithm: brick i goes to
// server i mod numServers (Fig. 3).
type RoundRobin struct{}

// Name implements Placement.
func (RoundRobin) Name() string { return "round-robin" }

// Assign implements Placement.
func (RoundRobin) Assign(numBricks, numServers int) ([]int, error) {
	if numServers <= 0 {
		return nil, errors.New("stripe: need at least one server")
	}
	out := make([]int, numBricks)
	for i := range out {
		out[i] = i % numServers
	}
	return out, nil
}

// Greedy is the load-balancing striping algorithm of Fig. 8. Each
// server has a normalized performance number Perf[k]: the access time
// for one brick relative to the fastest server (fastest = 1, slower
// servers larger). Brick i is assigned to the server k minimizing the
// accumulated cost A[k]+Perf[k]; ties prefer the faster (smaller Perf)
// server, then the lower index. With Perf = [1,2,1,2] this reproduces
// the distribution of Fig. 9 / Fig. 10 exactly.
type Greedy struct {
	// Perf holds one normalized performance number per server,
	// Perf[k] >= 1.
	Perf []int
}

// Name implements Placement.
func (Greedy) Name() string { return "greedy" }

// Assign implements Placement.
func (g Greedy) Assign(numBricks, numServers int) ([]int, error) {
	if numServers <= 0 {
		return nil, errors.New("stripe: need at least one server")
	}
	if len(g.Perf) != numServers {
		return nil, fmt.Errorf("stripe: greedy placement has %d performance numbers for %d servers",
			len(g.Perf), numServers)
	}
	for k, p := range g.Perf {
		if p < 1 {
			return nil, fmt.Errorf("stripe: performance number of server %d must be >= 1, got %d", k, p)
		}
	}
	acc := make([]int64, numServers)
	out := make([]int, numBricks)
	for i := 0; i < numBricks; i++ {
		best := 0
		bestScore := acc[0] + int64(g.Perf[0])
		for k := 1; k < numServers; k++ {
			score := acc[k] + int64(g.Perf[k])
			if score < bestScore || (score == bestScore && g.Perf[k] < g.Perf[best]) {
				best, bestScore = k, score
			}
		}
		out[i] = best
		acc[best] += int64(g.Perf[best])
	}
	return out, nil
}

// BrickLists converts a brick→server assignment into per-server brick
// lists (the bricklist attribute of DPFS-FILE-DISTRIBUTION), preserving
// ascending brick order within each list.
func BrickLists(assign []int, numServers int) [][]int {
	lists := make([][]int, numServers)
	for b, s := range assign {
		lists[s] = append(lists[s], b)
	}
	return lists
}
