package mp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestExchangePeerListContract pins what a peer list may hold, at the sizes
// where naming oneself and naming a rank twice are easiest to do by accident
// ((id+1)%p and (id+2)%p at p <= 2): a duplicate is one peer — filed once,
// messaged once, payload asked for its first index — and self or a rank
// outside the world is refused by name.
func TestExchangePeerListContract(t *testing.T) {
	for _, tc := range []struct {
		name  string
		p     int
		peers func(id int) []int
		// srcs is what every rank must be told, or panics what rank 0's
		// refusal must say.
		srcs   func(id int) []int
		panics string
	}{
		{name: "alone", p: 1, peers: func(int) []int { return nil }, srcs: func(int) []int { return []int{} }},
		{name: "self at p=1", p: 1, peers: func(int) []int { return []int{0} }, panics: "mp: rank 0 of 1 names peer 0"},
		{name: "pair", p: 2, peers: func(id int) []int { return []int{1 - id} }, srcs: func(id int) []int { return []int{1 - id} }},
		{name: "duplicate at p=2", p: 2, peers: func(id int) []int { return []int{1 - id, 1 - id} }, srcs: func(id int) []int { return []int{1 - id} }},
		{name: "self at p=2", p: 2, peers: func(id int) []int { return []int{(id + 1) % 2, (id + 2) % 2} }, panics: "mp: rank 0 of 2 names peer 0"},
		{name: "beyond the world", p: 2, peers: func(id int) []int { return []int{2} }, panics: "mp: rank 0 of 2 names peer 2"},
		{name: "negative", p: 3, peers: func(id int) []int { return []int{-1} }, panics: "mp: rank 0 of 3 names peer -1"},
		{name: "ring with a repeat", p: 3,
			peers: func(id int) []int { return []int{(id + 1) % 3, (id + 2) % 3, (id + 1) % 3} },
			srcs:  func(id int) []int { return []int{(id + 1) % 3, (id + 2) % 3} }},
	} {
		w := testWorld(t, tc.p, 1)
		err := w.Run(func(r *Rank) error {
			peers := tc.peers(r.ID())
			var asked []int
			srcs, recv := r.ExchangeInts(peers, func(i int) []int {
				asked = append(asked, i)
				return []int{r.ID(), peers[i]}
			})
			want := slices.Clone(tc.srcs(r.ID()))
			slices.Sort(want)
			if !slices.Equal(srcs, want) {
				return fmt.Errorf("senders %v, want %v", srcs, want)
			}
			for i, src := range srcs {
				if !slices.Equal(recv[i], []int{src, r.ID()}) {
					return fmt.Errorf("stream %d is %v, want %v", i, recv[i], []int{src, r.ID()})
				}
			}
			if distinct := len(want); len(asked) != distinct || !slices.IsSorted(asked) {
				return fmt.Errorf("payload asked for indices %v of %v", asked, peers)
			}
			// A second stream from a duplicate would still be queued here.
			r.Barrier()
			return nil
		})
		switch {
		case tc.panics == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.panics != "" && (err == nil || !strings.Contains(err.Error(), tc.panics)):
			t.Errorf("%s: got %v, want a panic saying %q", tc.name, err, tc.panics)
		}
		if tc.panics != "" {
			continue
		}
		for i, mb := range w.boxes {
			if n := mb.revoke(func(int) bool { return true }); n != 0 || len(mb.filed) != 0 {
				t.Errorf("%s: mailbox %d left with %d messages and filings %v", tc.name, i, n, mb.filed)
			}
		}
	}
}

// TestExchangeHandsStreamsOver: a stream is the receiver's from its send on,
// the very slice the payload returned, not a copy of it.
func TestExchangeHandsStreamsOver(t *testing.T) {
	var sent [2][]int
	w := testWorld(t, 2, 1)
	err := w.Run(func(r *Rank) error {
		stream := []int{r.ID(), 7}
		sent[r.ID()] = stream
		_, recv := r.ExchangeInts([]int{1 - r.ID()}, func(int) []int { return stream })
		r.Barrier()
		if other := sent[1-r.ID()]; len(recv) != 1 || &recv[0][0] != &other[0] {
			return fmt.Errorf("received %v, not the slice rank %d sent", recv, 1-r.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A rank that is already an exchange ahead files under the next tag while the
// owner has yet to read its list: senders takes its own tag's filings only.
func TestSendersTakesOnlyItsTag(t *testing.T) {
	mb := newMailbox(testWorld(t, 8, 8))
	for _, f := range []filing{{-9, 5}, {-18, 2}, {-9, 1}, {-18, 7}, {-9, 3}} {
		mb.file(f.tag, f.src)
	}
	if got := mb.senders(-9, 3); !slices.Equal(got, []int{1, 3, 5}) {
		t.Errorf("senders(-9) = %v", got)
	}
	if got := mb.senders(-9, 0); len(got) != 0 {
		t.Errorf("second senders(-9) = %v", got)
	}
	if got := mb.senders(-18, 1); !slices.Equal(got, []int{2, 7}) {
		t.Errorf("senders(-18) = %v", got)
	}
	if len(mb.filed) != 0 {
		t.Errorf("left filed: %v", mb.filed)
	}
}

// The two schedules of a filed sender that dies, through the collective, one
// rank per node. In both, rank 3 names rank 0 and nobody else names anybody.
// Where rank 3's clock stands between the steps of the exchange is read off a
// clean world running the reference's steps (the oracle above holds the
// collective to those clocks).
func TestExchangeWithDyingSender(t *testing.T) {
	const p = 4
	peersOf := func(id int) []int {
		if id == 3 {
			return []int{0}
		}
		return nil
	}
	stream := []int{7, 8, 9}
	// afterCensus[id] and afterSend[id] are the clean clocks.
	var afterCensus, afterSend [p]float64
	clean := faultWorld(t, p, 1)
	if err := runWithDeadline(t, clean, 30*time.Second, func(r *Rank) error {
		refCensus(r, peersOf(r.ID()))
		afterCensus[r.ID()] = r.Wtime()
		for _, q := range peersOf(r.ID()) {
			Send(r, q, exchangeTag, stream)
		}
		afterSend[r.ID()] = r.Wtime()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	t.Run("having sent nothing", func(t *testing.T) {
		// Rank 3 hands its indicator to the reduce tree at t=0 and is dead at
		// its next call, the broadcast receive: filed, counted, silent.
		w := faultWorld(t, p, 1)
		if err := w.ScheduleNodeCrash(3, math.SmallestNonzeroFloat64); err != nil {
			t.Fatal(err)
		}
		finished := make([]bool, p)
		err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
			r.ExchangeInts(peersOf(r.ID()), func(int) []int { return slices.Clone(stream) })
			finished[r.ID()] = true
			return nil
		})
		var re *RankError
		if !errors.As(err, &re) || re.Rank != 0 || !errors.Is(err, ErrRankDead) {
			t.Fatalf("got %v, want ErrRankDead on rank 0", err)
		}
		// Ranks 1 and 2 wait for nothing of rank 3's: its death is not theirs.
		if !slices.Equal(finished, []bool{false, true, true, false}) {
			t.Errorf("finished = %v, want ranks 1 and 2 only", finished)
		}
		// The receive that unwound moved no clock: rank 0 stands where the
		// census left it.
		if got := w.Clocks()[0].Now(); got != afterCensus[0] {
			t.Errorf("rank 0 unwound at %v, the census ends at %v", got, afterCensus[0])
		}
	})

	t.Run("having put", func(t *testing.T) {
		// Rank 3 dies at the first call after its send, the barrier's.
		w := faultWorld(t, p, 1)
		if err := w.ScheduleNodeCrash(3, afterSend[3]); err != nil {
			t.Fatal(err)
		}
		var got []int
		var at float64
		err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
			_, recv := r.ExchangeInts(peersOf(r.ID()), func(int) []int { return slices.Clone(stream) })
			if r.ID() == 0 {
				got, at = recv[0], r.Wtime()
			}
			r.Barrier()
			return nil
		})
		if !errors.Is(err, ErrRankDead) {
			t.Fatalf("got %v, want ErrRankDead", err)
		}
		if !slices.Equal(got, stream) {
			t.Errorf("rank 0 received %v before the death reached it, want %v", got, stream)
		}
		// Delivered as from a live sender: the clock moved to the arrival.
		if want := math.Max(afterCensus[0], afterSend[3]); at != want {
			t.Errorf("rank 0 at %v after the receive, want %v", at, want)
		}
	})
}

// TestCensusBuffersOutliveTheCensus runs two ExchangeInts on 300 ranks. Each
// rank sums its census in one P-length buffer of its own, which it keeps:
// the second census must find the first one's buffer and allocate none.
func TestCensusBuffersOutliveTheCensus(t *testing.T) {
	const p = 300
	held := make([][2]*float64, p)
	err := testWorld(t, p, 16).Run(func(r *Rank) error {
		for round := 0; round < 2; round++ {
			r.ExchangeInts(exchangePeers(r.ID(), p), func(int) []int { return []int{round} })
			if len(r.census) != p {
				return fmt.Errorf("census %d holds a buffer of %d elements, want %d", round, len(r.census), p)
			}
			held[r.ID()][round] = &r.census[0]
			r.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*float64]bool{}
	for id, h := range held {
		if h[1] != h[0] {
			t.Fatalf("rank %d's second census allocated a buffer", id)
		}
		if seen[h[0]] {
			t.Fatalf("rank %d shares its census buffer", id)
		}
		seen[h[0]] = true
	}
}
