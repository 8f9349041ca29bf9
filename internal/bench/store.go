package bench

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"heterohpc/internal/checkpoint"
	"heterohpc/internal/mp"
)

// snap is one serialised checkpoint copy: the container blob, the step it
// captured (recorded at save time, so restore never has to parse blobs) and
// the virtual time it was taken. step -1 means empty.
type snap struct {
	step int
	atS  float64
	blob []byte
}

var noSnap = snap{step: -1}

// snapshotStore is the one place a supervised job's checkpoints live. Per
// origin rank it keeps the last TWO own copies and the last two buddy copies —
// ranks killed mid-step may be one step apart (a rank racing past a step's
// final collective saves step N while a peer still holds N−1), so one
// retained snapshot per rank cannot guarantee a common restore line — plus at
// most one refugee copy (see putRefugee).
//
// The placement bit says where the copies physically are. On stable storage
// (topo nil) nothing is ever lost. In node memory (topo set) the store models
// residence: an origin's own copies sit on the origin's node, its buddy
// copies on the buddy's node, a refugee on its holder's node, and loseNode
// discards exactly what resided on the lost node, as a real node loss does to
// memory-resident checkpoints.
type snapshotStore struct {
	mu    sync.Mutex
	topo  *mp.Topology // nil: stable storage
	buddy []int        // buddy rank per origin, -1 when unprotected
	own   [][2]snap
	bud   [][2]snap
	// ref holds refugee evacuation copies: when a correlated wave dooms an
	// origin AND its buddy's node, the notice-window evacuation re-homes the
	// origin's line shard on a surviving third rank instead.
	ref   []snap
	refTo []int // holder rank of the refugee copy
	// tap, when non-nil, sees every own-copy write with the world width it
	// was taken at — the replay anchor collector (replay.go).
	tap func(rank, step, width int, blob []byte)
}

// newSnapshotStore returns an empty store for nranks origins; a non-nil
// topo places the copies in node memory.
func newSnapshotStore(nranks int, topo *mp.Topology, tap func(rank, step, width int, blob []byte)) *snapshotStore {
	s := &snapshotStore{
		topo: topo, tap: tap,
		buddy: make([]int, nranks),
		own:   make([][2]snap, nranks),
		bud:   make([][2]snap, nranks),
		ref:   make([]snap, nranks),
		refTo: make([]int, nranks),
	}
	for r := 0; r < nranks; r++ {
		s.buddy[r] = -1
		if topo != nil {
			s.buddy[r] = checkpoint.BuddyOf(*topo, r)
		}
		s.own[r] = [2]snap{noSnap, noSnap}
		s.bud[r] = [2]snap{noSnap, noSnap}
		s.ref[r] = noSnap
	}
	return s
}

// inMemory reports the placement bit.
func (s *snapshotStore) inMemory() bool { return s.topo != nil }

// put records rank's own copy, pushing the previous one back.
func (s *snapshotStore) put(rank, step int, atS float64, blob []byte) {
	s.mu.Lock()
	s.own[rank][1] = s.own[rank][0]
	s.own[rank][0] = snap{step: step, atS: atS, blob: blob}
	s.mu.Unlock()
	if s.tap != nil {
		s.tap(rank, step, len(s.own), blob)
	}
}

// putBuddy records the copy of origin's snapshot its buddy holds.
func (s *snapshotStore) putBuddy(origin, step int, atS float64, blob []byte) {
	s.mu.Lock()
	s.bud[origin][1] = s.bud[origin][0]
	s.bud[origin][0] = snap{step: step, atS: atS, blob: blob}
	s.mu.Unlock()
}

// putRefugee records an evacuation copy of origin's line shard re-homed on
// holder — used when origin's buddy node is itself doomed, so the regular
// buddy slot would evaporate with the wave.
func (s *snapshotStore) putRefugee(origin, holder, step int, atS float64, blob []byte) {
	s.mu.Lock()
	s.ref[origin] = snap{step: step, atS: atS, blob: blob}
	s.refTo[origin] = holder
	s.mu.Unlock()
}

// latest returns rank's newest own copy (nil when it has none).
func (s *snapshotStore) latest(rank int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.own[rank][0].blob
}

// loseNode discards the copies resident in the lost node's memory: the own
// copies of its ranks, the buddy copies it held for others, and any refugee
// copies re-homed onto it. Stable storage loses nothing.
func (s *snapshotStore) loseNode(node int) {
	if s.topo == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for r := range s.own {
		if s.topo.NodeOf[r] == node {
			s.own[r] = [2]snap{noSnap, noSnap}
		}
		if b := s.buddy[r]; b >= 0 && s.topo.NodeOf[b] == node {
			s.bud[r] = [2]snap{noSnap, noSnap}
		}
		if s.ref[r].step >= 0 && s.topo.NodeOf[s.refTo[r]] == node {
			s.ref[r] = noSnap
		}
	}
}

// copyAt returns the surviving own or buddy copy of origin at exactly step,
// own copy preferred. No step, negative ones included, matches an empty slot.
func (s *snapshotStore) copyAt(origin, step int) (snap, bool) {
	for _, sn := range [...]snap{s.own[origin][0], s.own[origin][1], s.bud[origin][0], s.bud[origin][1]} {
		if sn.step == step && step >= 0 {
			return sn, true
		}
	}
	return noSnap, false
}

// line computes the restore line: the highest step ≤ capStep for which EVERY
// origin still has a copy, and the virtual time the slowest origin
// checkpointed it (the rollback point). Ranks that raced one step ahead of a
// killed peer fall back to their previous copy, so all ranks resume from the
// same step and the per-rank collective sequence numbers stay aligned (a
// mixed-step resume would pair collectives across different time steps and
// hang). Returns (-1, 0) when no common step exists — some origin never
// checkpointed, lost every copy, or skew exceeded the retained window.
func (s *snapshotStore) line(capStep int) (int, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := capStep
	for origin := range s.own {
		hi := -1
		for _, sn := range [...]snap{s.own[origin][0], s.own[origin][1], s.bud[origin][0], s.bud[origin][1], s.ref[origin]} {
			if sn.step > hi && sn.step <= capStep {
				hi = sn.step
			}
		}
		if hi < best {
			best = hi
		}
	}
	if best < 1 {
		return -1, 0
	}
	var atS float64
	for origin := range s.own {
		sn, ok := s.copyAt(origin, best)
		if !ok {
			if sn = s.ref[origin]; sn.step != best {
				return -1, 0
			}
		}
		if sn.atS > atS {
			atS = sn.atS
		}
	}
	return best, atS
}

// rollback rewinds every origin to its copy at step, discarding what raced
// ahead, so latest hands each rank the restore line; a negative step (no
// line) empties the store and every rank restarts from scratch.
func (s *snapshotStore) rollback(step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for origin := range s.own {
		sn, _ := s.copyAt(origin, step)
		s.own[origin] = [2]snap{sn, noSnap}
	}
}

// newest returns the highest step any origin has an own copy of.
func (s *snapshotStore) newest() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	hi := -1
	for _, o := range s.own {
		if o[0].step > hi {
			hi = o[0].step
		}
	}
	return hi
}

// heldAt assembles the per-rank held-fragment lists a world on another
// rank count redistributes from. toOld maps each rank of the next world to
// its rank in this store's numbering (-1 for ranks that joined at a Grow
// and hold nothing). In node memory each old rank contributes its own
// surviving copy at the restore line, the buddy copies it holds for
// origins that lived on the dead nodes, and any refugee copies an
// evacuation re-homed onto it. On stable storage nothing was lost and
// nothing resides on a node, so toOld gives only the new width n: rank r
// takes the copies of origins r, r+n, r+2n, ….
func (s *snapshotStore) heldAt(app string, toOld, deadNodes []int, line int) ([][]checkpoint.Snapshot, error) {
	held := make([][]checkpoint.Snapshot, len(toOld))
	for newR, oldR := range toOld {
		if oldR < 0 {
			continue
		}
		var snaps []snap
		if s.topo == nil {
			for origin := newR; origin < len(s.own); origin += len(toOld) {
				if sn, ok := s.copyAt(origin, line); ok {
					snaps = append(snaps, sn)
				}
			}
		} else {
			if sn, ok := s.copyAt(oldR, line); ok {
				snaps = append(snaps, sn)
			}
			for _, origin := range checkpoint.Protects(*s.topo, oldR) {
				if !slices.Contains(deadNodes, s.topo.NodeOf[origin]) {
					continue // origin alive: it contributes its own copy
				}
				if sn, ok := s.copyAt(origin, line); ok {
					snaps = append(snaps, sn)
				}
			}
			for origin, sn := range s.ref {
				if sn.step == line && s.refTo[origin] == oldR {
					snaps = append(snaps, sn)
				}
			}
		}
		for _, sn := range snaps {
			st, err := checkpoint.Read(bytes.NewReader(sn.blob), app)
			if err != nil {
				return nil, fmt.Errorf("bench: corrupt checkpoint held by rank %d: %w", oldR, err)
			}
			held[newR] = append(held[newR], st)
		}
	}
	return held, nil
}
