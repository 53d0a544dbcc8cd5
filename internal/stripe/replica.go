package stripe

import (
	"fmt"
	"strconv"
	"strings"
)

// This file adds brick replication to the placement layer. A file
// created with replication factor R stores R copies of every brick on R
// distinct servers. Replica rank 0 is the "preferred" copy (the one the
// base placement algorithm chose); higher ranks are fallbacks read only
// when lower ranks are unreachable, and every rank receives writes.

// ReplicaEntry is one element of a server's brick list when the file is
// replicated: the brick id plus the replica rank this server holds.
type ReplicaEntry struct {
	Brick int
	Rank  int
}

// AssignReplicas places replicas replicas of each of numBricks bricks on
// distinct servers. Rank 0 follows the base placement p exactly (so
// replicas == 1 reproduces p.Assign bit for bit); higher ranks are
// placed per algorithm:
//
//   - Greedy: cost-aware — each extra replica goes to the server with
//     the lowest accumulated cost that does not already hold the brick,
//     continuing the accumulation started by the rank-0 sweep.
//   - anything else (round-robin): offset-shifted — rank k of brick i
//     lands on server (assign0[i]+k) mod numServers.
//
// The result is indexed [brick][rank].
func AssignReplicas(p Placement, numBricks, numServers, replicas int) ([][]int, error) {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > numServers {
		return nil, fmt.Errorf("stripe: replication factor %d exceeds %d servers", replicas, numServers)
	}
	base, err := p.Assign(numBricks, numServers)
	if err != nil {
		return nil, err
	}
	out := make([][]int, numBricks)
	if g, ok := p.(Greedy); ok && replicas > 1 {
		acc := make([]int64, numServers)
		for _, s := range base {
			acc[s] += int64(g.Perf[s])
		}
		for i, s0 := range base {
			set := make([]int, 1, replicas)
			set[0] = s0
			for r := 1; r < replicas; r++ {
				best := -1
				var bestScore int64
				for k := 0; k < numServers; k++ {
					if containsInt(set, k) {
						continue
					}
					score := acc[k] + int64(g.Perf[k])
					if best < 0 || score < bestScore ||
						(score == bestScore && g.Perf[k] < g.Perf[best]) {
						best, bestScore = k, score
					}
				}
				set = append(set, best)
				acc[best] += int64(g.Perf[best])
			}
			out[i] = set
		}
		return out, nil
	}
	for i, s0 := range base {
		set := make([]int, replicas)
		for r := range set {
			set[r] = (s0 + r) % numServers
		}
		out[i] = set
	}
	return out, nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// ReplicaLists converts a [brick][rank] replica assignment into
// per-server lists of ReplicaEntry, preserving ascending brick order
// (and rank order within a brick) in each list. The list order defines
// subfile slot order: entry j of server s's list is stored at byte
// offset j*SlotBytes in s's subfile.
func ReplicaLists(assign [][]int, numServers int) [][]ReplicaEntry {
	lists := make([][]ReplicaEntry, numServers)
	for b, set := range assign {
		for r, s := range set {
			lists[s] = append(lists[s], ReplicaEntry{Brick: b, Rank: r})
		}
	}
	return lists
}

// FormatReplicaList renders a server's replica brick list for the
// catalog. Rank-0-only lists (unreplicated files) are the plain
// comma-separated brick ids of Fig. 10 ("0,2,6"), so replication factor
// 1 stays byte-identical with the pre-replication catalog; mixed-rank
// lists annotate each entry as brick:rank ("0:0,3:1,6:0").
func FormatReplicaList(entries []ReplicaEntry) string {
	plain := true
	for _, e := range entries {
		if e.Rank != 0 {
			plain = false
			break
		}
	}
	var sb strings.Builder
	for i, e := range entries {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(e.Brick))
		if !plain {
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(e.Rank))
		}
	}
	return sb.String()
}

// ParseReplicaList parses the catalog representation produced by
// FormatReplicaList. Plain entries ("6") are rank 0. The list is
// walked once, entry by entry, into one slice sized from the comma
// count.
func ParseReplicaList(s string) ([]ReplicaEntry, error) {
	if s == "" {
		return nil, nil
	}
	out := make([]ReplicaEntry, 0, strings.Count(s, ",")+1)
	for rest, more := s, true; more; {
		var p string
		p, rest, more = strings.Cut(rest, ",")
		p = strings.TrimSpace(p)
		e := ReplicaEntry{}
		if brick, rank, ok := strings.Cut(p, ":"); ok {
			r, err := strconv.Atoi(rank)
			if err != nil {
				return nil, fmt.Errorf("stripe: bad replica rank in %q: %w", p, err)
			}
			e.Rank = r
			p = brick
		}
		b, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("stripe: bad brick list entry %q: %w", p, err)
		}
		e.Brick = b
		out = append(out, e)
	}
	return out, nil
}

// ReplicaSet is the client-side view of a replicated file's layout,
// reconstructed from the per-server catalog lists.
type ReplicaSet struct {
	// Servers maps [brick][rank] to the server index holding that
	// replica.
	Servers [][]int
	// Local maps [brick][rank] to the replica's slot within its
	// server's subfile (its position in the server's stored list, which
	// repair may have appended to — slot order is list order, not brick
	// order).
	Local [][]int64
}

// ReplicaSetFromLists reconstructs the replica layout from per-server
// lists, validating that every brick in [0,numBricks) appears with each
// rank 0..replicas-1 exactly once and that no server holds two replicas
// of the same brick.
func ReplicaSetFromLists(lists [][]ReplicaEntry, numBricks, replicas int) (*ReplicaSet, error) {
	if replicas < 1 {
		replicas = 1
	}
	rs := &ReplicaSet{
		Servers: make([][]int, numBricks),
		Local:   make([][]int64, numBricks),
	}
	// Each brick's row is a capped window of one flat array per field,
	// so the set costs the same few allocations at any brick count.
	servers := make([]int, numBricks*replicas)
	local := make([]int64, numBricks*replicas)
	for i := range servers {
		servers[i] = -1
	}
	for b := range rs.Servers {
		lo, hi := b*replicas, (b+1)*replicas
		rs.Servers[b] = servers[lo:hi:hi]
		rs.Local[b] = local[lo:hi:hi]
	}
	for s, list := range lists {
		for j, e := range list {
			if e.Brick < 0 || e.Brick >= numBricks {
				return nil, fmt.Errorf("stripe: brick %d out of range [0,%d)", e.Brick, numBricks)
			}
			if e.Rank < 0 || e.Rank >= replicas {
				return nil, fmt.Errorf("stripe: replica rank %d of brick %d out of range [0,%d)",
					e.Rank, e.Brick, replicas)
			}
			if rs.Servers[e.Brick][e.Rank] >= 0 {
				return nil, fmt.Errorf("stripe: replica %d of brick %d assigned twice", e.Rank, e.Brick)
			}
			for r, held := range rs.Servers[e.Brick] {
				if r != e.Rank && held == s {
					return nil, fmt.Errorf("stripe: server %d holds two replicas of brick %d", s, e.Brick)
				}
			}
			rs.Servers[e.Brick][e.Rank] = s
			rs.Local[e.Brick][e.Rank] = int64(j)
		}
	}
	for b, set := range rs.Servers {
		for r, s := range set {
			if s < 0 {
				return nil, fmt.Errorf("stripe: replica %d of brick %d unassigned", r, b)
			}
		}
	}
	return rs, nil
}

// Replicas returns the replication factor of the set.
func (rs *ReplicaSet) Replicas() int {
	if len(rs.Servers) == 0 {
		return 1
	}
	return len(rs.Servers[0])
}

// Primary returns the rank-0 brick→server assignment, the shape the
// unreplicated planner APIs (Combine, PerBrick) consume.
func (rs *ReplicaSet) Primary() []int {
	out := make([]int, len(rs.Servers))
	for b, set := range rs.Servers {
		out[b] = set[0]
	}
	return out
}

// RankAssignment returns the brick→server assignment of replica rank r.
func (rs *ReplicaSet) RankAssignment(r int) []int {
	out := make([]int, len(rs.Servers))
	for b, set := range rs.Servers {
		out[b] = set[r]
	}
	return out
}

// SlotOn returns the subfile slot of brick b on server s, or -1 when s
// holds no replica of b.
func (rs *ReplicaSet) SlotOn(b, s int) int64 {
	for r, held := range rs.Servers[b] {
		if held == s {
			return rs.Local[b][r]
		}
	}
	return -1
}
