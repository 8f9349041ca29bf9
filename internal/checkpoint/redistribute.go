package checkpoint

import (
	"fmt"
	"math"
	"sort"

	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
)

// Redistribute scatters held checkpoint fragments onto the block
// decomposition grid of m over the calling world and returns the resume
// snapshot: the agreed step and time, the fields in this rank's owned order
// under the new decomposition, and those owned ids. After a world is
// re-formed the survivors hold a full copy of the checkpointed field (their
// own snapshots plus the buddy copies of the dead), but ownership no longer
// matches where the values sit; this moves every held vertex to its new
// owner as real mp traffic.
//
// It is a collective: every rank passes its own held fragments — possibly
// none, for a rank that joined the world at a Grow and has no history — and
// together they must cover the global field exactly once, all at one
// restore line (StepsDone, Time). The exchange is a pure permutation of the
// stored float64 values — no arithmetic — so a run resumed from the result
// is bit-identical to a run at the new rank count resumed from the same
// snapshot. tag and tag+1 must be free application tags.
func Redistribute(r *mp.Rank, m *mesh.Mesh, grid [3]int, app string, held []Snapshot, tag int) (Snapshot, error) {
	l, err := layoutOf(app)
	if err != nil {
		return Snapshot{}, err
	}
	p, nf := r.Size(), len(l.fields)
	if grid[0]*grid[1]*grid[2] != p {
		return Snapshot{}, fmt.Errorf("checkpoint: grid %v for %d ranks", grid, p)
	}
	var step int
	var tm float64
	if len(held) > 0 {
		step, tm = held[0].StepsDone, held[0].Time
	}
	for _, h := range held {
		if len(h.Fields) != nf {
			return Snapshot{}, fmt.Errorf("checkpoint: origin %d holds %d fields, the %s layout has %d", h.Rank, len(h.Fields), app, nf)
		}
		for i, f := range h.Fields {
			if len(f) != len(h.Owned) {
				return Snapshot{}, fmt.Errorf("checkpoint: origin %d holds %d ids for %d values of %s",
					h.Rank, len(h.Owned), len(f), l.fields[i])
			}
		}
		if h.StepsDone != step || h.Time != tm {
			return Snapshot{}, fmt.Errorf("checkpoint: origin %d at step %d (t=%v), origin %d at step %d (t=%v)",
				held[0].Rank, step, tm, h.Rank, h.StepsDone, h.Time)
		}
	}
	// Global agreement that every holder resumes the same step: one
	// allreduce carrying (step, time) and their negations detects any
	// mismatch without a second collective. Empty-handed ranks contribute
	// -Inf everywhere, the OpMax identity, so they adopt the holders' line
	// without constraining it.
	local := []float64{float64(step), tm, -float64(step), -tm}
	if len(held) == 0 {
		for i := range local {
			local[i] = math.Inf(-1)
		}
	}
	agree := r.Allreduce(mp.OpMax, local)
	if math.IsInf(agree[0], -1) {
		return Snapshot{}, fmt.Errorf("checkpoint: no rank holds any state to redistribute")
	}
	if agree[0] != -agree[2] || agree[1] != -agree[3] {
		return Snapshot{}, fmt.Errorf("checkpoint: ranks disagree on the restore line (steps up to %v, times up to %v)",
			agree[0], agree[1])
	}
	// Bit-exact: the max of equal holder values is those values.
	step, tm = int(agree[0]), agree[1]

	// Bucket every held vertex by its new owner, fields interleaved per
	// vertex. Sorting fragments by origin keeps the per-destination payload
	// order identical across runs.
	sort.Slice(held, func(a, b int) bool { return held[a].Rank < held[b].Rank })
	sendIDs := make([][]int, p)
	sendVals := make([][]float64, p)
	for _, h := range held {
		for i, gid := range h.Owned {
			d := mesh.VertexOwnerOnBlocks(m, grid[0], grid[1], grid[2], gid)
			sendIDs[d] = append(sendIDs[d], gid)
			for _, f := range h.Fields {
				sendVals[d] = append(sendVals[d], f[i])
			}
		}
		r.ChargeCompute(10*float64(len(h.Owned)), l.redistBytes*float64(len(h.Owned)))
	}

	// Pairwise exchange (round s sends to rank+s, receives from rank−s);
	// sends are buffered so the rounds cannot deadlock.
	recvIDs := [][]int{sendIDs[r.ID()]}
	recvVals := [][]float64{sendVals[r.ID()]}
	for s := 1; s < p; s++ {
		dst := (r.ID() + s) % p
		src := (r.ID() - s + p) % p
		r.SendInts(dst, tag, sendIDs[dst])
		r.SendF64(dst, tag+1, sendVals[dst])
		ids := r.RecvInts(src, tag)
		vals := r.RecvF64(src, tag+1)
		if nf*len(ids) != len(vals) {
			return Snapshot{}, fmt.Errorf("checkpoint: rank %d sent %d ids with %d values", src, len(ids), len(vals))
		}
		recvIDs = append(recvIDs, ids)
		recvVals = append(recvVals, vals)
	}

	// Assemble into owned order under the new decomposition.
	loc, err := mesh.NewLocalFromBlock(m, grid[0], grid[1], grid[2], r.ID())
	if err != nil {
		return Snapshot{}, err
	}
	out := Snapshot{StepsDone: step, Time: tm, Rank: r.ID(), Width: p,
		Owned: append([]int(nil), loc.VertGlobal[:loc.NumOwned]...), Fields: make([][]float64, nf)}
	idx := make(map[int]int, len(out.Owned))
	for i, gid := range out.Owned {
		idx[gid] = i
	}
	for f := range out.Fields {
		out.Fields[f] = make([]float64, len(out.Owned))
	}
	filled := make([]bool, len(out.Owned))
	for b, ids := range recvIDs {
		for i, gid := range ids {
			li, ok := idx[gid]
			if !ok {
				return Snapshot{}, fmt.Errorf("checkpoint: received vertex %d not owned by rank %d", gid, r.ID())
			}
			if filled[li] {
				return Snapshot{}, fmt.Errorf("checkpoint: vertex %d delivered twice", gid)
			}
			filled[li] = true
			for f := range out.Fields {
				out.Fields[f][li] = recvVals[b][nf*i+f]
			}
		}
	}
	for i, ok := range filled {
		if !ok {
			return Snapshot{}, fmt.Errorf("checkpoint: vertex %d of rank %d never delivered — held fragments do not cover the field",
				out.Owned[i], r.ID())
		}
	}
	return out, nil
}
