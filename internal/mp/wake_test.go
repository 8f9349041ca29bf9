package mp

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// sleepMark is a wait tag no message carries. A test writes it over a parked
// owner's recorded tag: an owner that is woken re-parks and records its real
// tag again, so a mark that survives proves the owner slept.
const sleepMark = -1 << 40

// waitFor polls cond until it holds, for at most ten seconds.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		if cond() {
			return true
		}
	}
	return false
}

// parkedOn reports whether mb's owner is parked on src. The record is
// published under mb.mu and the owner holds the lock until cond.Wait has
// enrolled it, so a record read under the lock is a parked owner.
func parkedOn(mb *mailbox, src int) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.waitSrc.Load() == int32(src)
}

// relabel replaces the tag of mb's recorded wait and returns the old one.
func relabel(mb *mailbox, tag int) int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	old := mb.waitTag
	mb.waitTag = tag
	return old
}

// sleptThrough watches mb for a while and reports whether its owner never
// rewrote the sleep mark, that is, was never woken.
func sleptThrough(mb *mailbox) bool {
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		mb.mu.Lock()
		tag := mb.waitTag
		mb.mu.Unlock()
		if tag != sleepMark {
			return false
		}
	}
	return true
}

// TestParkedRankSleepsThroughOtherTraffic parks a receive on (0, 7) and
// floods its mailbox with everything else: the same tag from other sources,
// other tags and collective tags from source 0. The owner must not wake for
// any of it, and must return on its own message.
func TestParkedRankSleepsThroughOtherTraffic(t *testing.T) {
	const tag = 7
	w := testWorld(t, 4, 4)
	mb := w.boxes[3]
	got := make(chan delivery, 1)
	go func() { got <- receive(func() message { return mb.take(0, tag) }) }()
	if !waitFor(func() bool { return parkedOn(mb, 0) }) {
		t.Fatal("the receive never parked")
	}
	relabel(mb, sleepMark)
	serial := 0
	send := func(src, tag int) {
		m := pack([]int{serial})
		m.src, m.tag = int32(src), tag
		mb.put(m)
		serial++
	}
	for i := 0; i < 300; i++ {
		send(1+i%3, tag)
		send(0, tag+1+i%3)
		send(0, -(1 + i*collKinds + kindReduce))
	}
	if !sleptThrough(mb) {
		t.Fatal("the owner parked on (0, 7) was woken by another source's or tag's message")
	}
	if old := relabel(mb, tag); old != sleepMark {
		t.Fatalf("the wait record changed to tag %d while the owner slept", old)
	}
	want := delivery{src: 0, tag: tag, serial: serial}
	send(0, tag)
	select {
	case d := <-got:
		if d != want {
			t.Fatalf("the parked receive returned %+v, want %+v", d, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the owner was not woken by the message it was parked on")
	}
}

// TestDeathWakesOnlyItsWaiters parks ranks 1 and 2 on rank 0 and rank 3 on
// rank 4, then lets rank 0 exit without sending. Ranks 1 and 2 must unwind
// with ErrRankDead; rank 3 must sleep through the three exits and return
// when rank 4 sends.
func TestDeathWakesOnlyItsWaiters(t *testing.T) {
	const tag = 9
	w := testWorld(t, 5, 5)
	var returned [5]atomic.Bool
	err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
		switch id := r.ID(); id {
		case 0:
			if !waitFor(func() bool { return parkedOn(w.boxes[1], 0) && parkedOn(w.boxes[2], 0) && parkedOn(w.boxes[3], 4) }) {
				return errors.New("the receives never parked")
			}
			relabel(w.boxes[3], sleepMark) // then exits having sent nothing
		case 1, 2:
			Recv[float64](r, 0, tag)
		case 3:
			if got := Recv[float64](r, 4, tag); len(got) != 1 || got[0] != 4 {
				return fmt.Errorf("rank 3 received %v from rank 4", got)
			}
		case 4:
			if !waitFor(func() bool { return w.rankDead[1].Load() && w.rankDead[2].Load() }) {
				return errors.New("ranks 1 and 2 never unwound")
			}
			if !sleptThrough(w.boxes[3]) {
				return errors.New("rank 3, parked on rank 4, was woken by another rank's exit")
			}
			relabel(w.boxes[3], tag)
			Send(r, 3, tag, []float64{4})
		}
		returned[r.ID()].Store(true)
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 || !errors.Is(err, ErrRankDead) {
		t.Fatalf("Run returned %v, want rank 1's ErrRankDead", err)
	}
	for id, want := range []bool{true, false, false, true, true} {
		if returned[id].Load() != want {
			t.Errorf("rank %d returned normally: %v, want %v", id, returned[id].Load(), want)
		}
	}
}

// stressPlan is one seeded script for a world of p ranks: per round, each
// rank's directed sends and the order it receives its messages in, the
// collective every rank runs at the round's end, and the round at which
// some ranks exit.
type stressPlan struct {
	p, rounds int
	sends     [][][]stressMsg // [round][rank]
	recvs     [][][]stressMsg // [round][rank], a permutation of what is sent to the rank
	coll      []int           // [round]: 0 none, 1 scalar allreduce, 2 vector allreduce, 3 barrier, 4 exchange
	exitAt    []int           // [rank]: the round the rank exits at, rounds for never
}

type stressMsg struct{ peer, tag int }

func newStressPlan(seed int64, p, rounds int) *stressPlan {
	rng := rand.New(rand.NewSource(seed))
	pl := &stressPlan{p: p, rounds: rounds, exitAt: make([]int, p)}
	for r := 0; r < rounds; r++ {
		sends, recvs := make([][]stressMsg, p), make([][]stressMsg, p)
		for src := 0; src < p; src++ {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				dst := (src + 1 + rng.Intn(p-1)) % p
				tag := 1 + rng.Intn(3)
				sends[src] = append(sends[src], stressMsg{dst, tag})
				recvs[dst] = append(recvs[dst], stressMsg{src, tag})
			}
		}
		for _, in := range recvs {
			rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		}
		pl.sends, pl.recvs = append(pl.sends, sends), append(pl.recvs, recvs)
		// The first collective after an exit unwinds the whole world, so
		// the second half, where ranks exit, is directed traffic only:
		// there the deaths spread one receive at a time.
		coll := 0
		if r < rounds/2 {
			coll = rng.Intn(5)
		}
		pl.coll = append(pl.coll, coll)
	}
	for i := range pl.exitAt {
		pl.exitAt[i] = rounds
	}
	for k := 0; k < 6; k++ {
		pl.exitAt[rng.Intn(p)] = rounds/2 + rng.Intn(rounds/2)
	}
	return pl
}

// run executes the plan on a fresh world and returns each rank's log of what
// it received, ending in the point where it unwound if it did, and Run's
// error text.
func (pl *stressPlan) run(t *testing.T) ([][]string, string) {
	w := testWorld(t, pl.p, 8)
	logs := make([][]string, pl.p)
	err := runWithDeadline(t, w, 60*time.Second, func(r *Rank) error {
		id := r.ID()
		log := &logs[id]
		done := false
		defer func() {
			if !done {
				*log = append(*log, "unwound")
			}
		}()
		for round := 0; round < pl.rounds; round++ {
			if round == pl.exitAt[id] {
				*log = append(*log, fmt.Sprintf("exit %d", round))
				done = true
				return nil
			}
			for j, m := range pl.sends[round][id] {
				Send(r, m.peer, m.tag, []float64{float64(1000*id + j), float64(round)})
			}
			for _, m := range pl.recvs[round][id] {
				*log = append(*log, fmt.Sprint(m.peer, m.tag, Recv[float64](r, m.peer, m.tag)))
			}
			switch pl.coll[round] {
			case 1:
				*log = append(*log, fmt.Sprint(r.AllreduceScalar(OpMax, float64(id*round))))
			case 2:
				*log = append(*log, fmt.Sprint(r.Allreduce(OpSum, []float64{float64(id), float64(round)})))
			case 3:
				r.Barrier()
			case 4:
				var peers []int
				for _, m := range pl.sends[round][id] {
					if !slices.Contains(peers, m.peer) {
						peers = append(peers, m.peer)
					}
				}
				srcs, recv := r.ExchangeInts(peers, func(i int) []int { return []int{id, peers[i], round} })
				*log = append(*log, fmt.Sprint(srcs, recv))
			}
		}
		done = true
		return nil
	})
	if err == nil {
		return logs, ""
	}
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("stress world failed: %v", err)
	}
	return logs, err.Error()
}

// TestWakeStressDeliversTheSameEveryRun runs seeded 64-rank scripts of
// directed traffic received out of send order, collectives and rank exits,
// three times each. A lost wake-up shows as a world that never finishes; a
// wake that lets a rank take the wrong message, or unwind where it should
// have received, shows as a log that differs between runs.
func TestWakeStressDeliversTheSameEveryRun(t *testing.T) {
	const p, rounds = 64, 40
	for seed := int64(1); seed <= 3; seed++ {
		pl := newStressPlan(seed, p, rounds)
		want, wantErr := pl.run(t)
		if wantErr == "" {
			t.Fatalf("seed %d: no rank unwound; the plan's exits should reach some receive", seed)
		}
		for run := 1; run < 3; run++ {
			got, gotErr := pl.run(t)
			if gotErr != wantErr {
				t.Fatalf("seed %d run %d: Run returned %q, first run %q", seed, run, gotErr, wantErr)
			}
			for id := range want {
				if !slices.Equal(got[id], want[id]) {
					t.Fatalf("seed %d run %d: rank %d logged\n%v\nfirst run\n%v", seed, run, id, got[id], want[id])
				}
			}
		}
	}
}
