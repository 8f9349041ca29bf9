package mp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// The importer's transport as it was before links: a copy of the gathered
// values posted to the destination's mailbox, and a directed receive that
// scatters the payload and counts its return. It is the oracle for
// SendGather, RecvScatter and RecvAddScatter.

func refSendGather(r *Rank, dst, tag int, x []float64, idx []int) {
	cp := make([]float64, len(idx))
	for j, k := range idx {
		cp[j] = x[k]
	}
	Send(r, dst, tag, cp)
}

func refRecvScatter(r *Rank, src, tag int, x []float64, pos []int) {
	buf := Recv[float64](r, src, tag)
	r.puts++
	if len(buf) != len(pos) {
		panic(fmt.Sprintf("mp: RecvF64Scatter payload %d != positions %d", len(buf), len(pos)))
	}
	for j, k := range pos {
		x[k] = buf[j]
	}
}

// linkStressPlan is one seeded script of exchanges for a world of p ranks:
// rank p-1 is a feeder that only sends, one message a round to rank 0, and
// the others trade with symmetric random neighbour sets, receiving in a
// shuffled order. Payload lengths change from round to round. In round slow
// rank 0 holds back its receives until its neighbours are two exchanges
// ahead on its links and the feeder at least three, and from then on ranks
// exit mid-exchange, having sent to only some of their peers.
type linkStressPlan struct {
	p, rounds, slow int
	peers           [][]int
	recvs           [][][]int // [round][rank]: the sources in receive order
	exitAt          []int     // [rank]: the round the rank exits in, rounds for never
}

const (
	linkStressTag = 5
	feederTag     = 6
)

func newLinkStressPlan(seed int64, p, rounds int) *linkStressPlan {
	rng := rand.New(rand.NewSource(seed))
	pl := &linkStressPlan{p: p, rounds: rounds, slow: rounds / 4, peers: make([][]int, p), exitAt: make([]int, p)}
	feeder := p - 1
	for a := 0; a < feeder; a++ {
		for k := 0; k < 2; k++ {
			b := rng.Intn(feeder)
			if b != a && !slices.Contains(pl.peers[a], b) {
				pl.peers[a] = append(pl.peers[a], b)
				pl.peers[b] = append(pl.peers[b], a)
			}
		}
	}
	for round := 0; round < rounds; round++ {
		recvs := make([][]int, p)
		for id := 0; id < feeder; id++ {
			recvs[id] = slices.Clone(pl.peers[id])
			if id == 0 {
				recvs[id] = append(recvs[id], feeder)
			}
			rng.Shuffle(len(recvs[id]), func(i, j int) { recvs[id][i], recvs[id][j] = recvs[id][j], recvs[id][i] })
		}
		pl.recvs = append(pl.recvs, recvs)
	}
	for i := range pl.exitAt {
		pl.exitAt[i] = rounds
	}
	pl.exitAt[feeder] = pl.slow + 4 + rng.Intn(rounds-pl.slow-4)
	// A neighbour of rank 0 that left in round slow+1 might never make
	// rank 0's links two deep.
	for k := 0; k < 4; k++ {
		pl.exitAt[1+rng.Intn(feeder-1)] = pl.slow + 2 + rng.Intn(rounds-pl.slow-2)
	}
	return pl
}

// width is the payload length of src's message to dst in round.
func (pl *linkStressPlan) width(src, dst, round int) int { return (7*src + dst + round) % 5 }

// linkTransport is one rank's exchange under comparison: the mailbox
// reference or links.
type linkTransport interface {
	send(r *Rank, dst, tag int, x []float64, idx []int)
	recv(r *Rank, src, tag int, x []float64, pos []int)
}

type mailboxTransport struct{}

func (mailboxTransport) send(r *Rank, dst, tag int, x []float64, idx []int) {
	refSendGather(r, dst, tag, x, idx)
}

func (mailboxTransport) recv(r *Rank, src, tag int, x []float64, pos []int) {
	refRecvScatter(r, src, tag, x, pos)
}

// linksTransport holds one rank's links, opened one element wide, so that
// the plan's longer payloads make them grow.
type linksTransport struct{ to, from map[int]*Link }

func (lt linksTransport) send(r *Rank, dst, _ int, x []float64, idx []int) {
	r.SendGather(lt.to[dst], x, idx)
}

func (lt linksTransport) recv(r *Rank, src, _ int, x []float64, pos []int) {
	r.RecvScatter(lt.from[src], x, pos)
}

func (pl *linkStressPlan) tag(src int) int {
	if src == pl.p-1 {
		return feederTag
	}
	return linkStressTag
}

// run executes the plan and returns each rank's log — every payload it
// received with its clock after the receive, ending in "exit" or "unwound" —
// Run's error text and the messages left pending. With links, rank 0
// waits in round slow for the depth the plan promises.
func (pl *linkStressPlan) run(t *testing.T, links bool) ([][]string, string, int) {
	w := faultWorld(t, pl.p, 4)
	feeder := pl.p - 1
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
		dsts := pl.peers[id]
		if id == feeder {
			dsts = []int{0}
		}
		var tr linkTransport = mailboxTransport{}
		if links {
			lt := linksTransport{to: map[int]*Link{}, from: map[int]*Link{}}
			for _, dst := range dsts {
				lt.to[dst] = r.LinkTo(dst, pl.tag(id), 1)
			}
			for _, src := range pl.recvs[0][id] {
				lt.from[src] = r.LinkFrom(src, pl.tag(src))
			}
			tr = lt
		}
		x := make([]float64, 8)
		idx := []int{3, 1, 4, 0, 2}
		for round := 0; round < pl.rounds; round++ {
			for j, dst := range dsts {
				if round == pl.exitAt[id] && j == len(dsts)/2 {
					*log = append(*log, fmt.Sprintf("exit %d", round))
					done = true
					return nil
				}
				for i := range x {
					x[i] = math.Sqrt(float64(1 + 1000*id + 10*dst + round + i))
				}
				tr.send(r, dst, pl.tag(id), x, idx[:pl.width(id, dst, round)])
			}
			if id == 0 && round == pl.slow && links {
				deep := func(src, min int) bool {
					l := link(w, src, 0, pl.tag(src))
					return l.pub.Load()-l.con.Load() >= uint64(min)
				}
				if !waitFor(func() bool {
					for _, src := range pl.peers[0] {
						if !deep(src, 2) {
							return false
						}
					}
					return deep(feeder, 3)
				}) {
					return errors.New("rank 0's links never got two exchanges deep")
				}
			}
			for _, src := range pl.recvs[round][id] {
				y := make([]float64, pl.width(src, id, round))
				pos := make([]int, len(y))
				for i := range pos {
					pos[i] = len(y) - 1 - i
				}
				tr.recv(r, src, pl.tag(src), y, pos)
				*log = append(*log, fmt.Sprint(src, y, r.Wtime()))
			}
		}
		done = true
		return nil
	})
	if err != nil && !errors.Is(err, ErrRankDead) {
		t.Fatalf("stress world failed: %v", err)
	}
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	if links {
		for _, l := range w.boxes[0].links {
			if l.src == feeder && len(l.ring.Load().msgs) <= linkDepth {
				t.Errorf("the feeder's link never grew past %d slots", linkDepth)
			}
		}
	}
	return logs, errText, pending(w)
}

// TestLinkStressMatchesMailbox runs seeded 48-rank exchange scripts on links
// three times each and on the mailbox path once: rank 0's links are two
// exchanges deep at one point and the feeder's several, payloads change
// length, and ranks exit halfway through an exchange. Every run must log
// what the mailbox logs — the same payloads at the same clocks, the same
// unwinding and the same pending messages. A lost wake-up shows as a world
// that never finishes.
func TestLinkStressMatchesMailbox(t *testing.T) {
	const p, rounds = 48, 24
	for seed := int64(1); seed <= 3; seed++ {
		pl := newLinkStressPlan(seed, p, rounds)
		want, wantErr, wantRevoked := pl.run(t, false)
		if wantErr == "" {
			t.Fatalf("seed %d: no rank unwound; the plan's exits should reach some receive", seed)
		}
		for run := 0; run < 3; run++ {
			got, gotErr, revoked := pl.run(t, true)
			if gotErr != wantErr || revoked != wantRevoked {
				t.Fatalf("seed %d run %d: Run returned %q with %d pending; mailbox %q, %d", seed, run, gotErr, revoked, wantErr, wantRevoked)
			}
			for id := range want {
				if !slices.Equal(got[id], want[id]) {
					t.Fatalf("seed %d run %d: rank %d logged\n%v\nmailbox\n%v", seed, run, id, got[id], want[id])
				}
			}
		}
	}
}

// TestLinkParkedReceiverSleepsThroughOtherTraffic parks a link receive on
// (0, 7) and sends everything else to its owner: the same tag from other
// sources on their links and in the mailbox, and other tags from source 0.
// The owner must not wake for any of it, and must return on its message.
func TestLinkParkedReceiverSleepsThroughOtherTraffic(t *testing.T) {
	const tag = 7
	w := testWorld(t, 4, 4)
	mb := w.boxes[3]
	want := link(w, 0, 3, tag)
	others := []*Link{link(w, 1, 3, tag), link(w, 2, 3, tag), link(w, 0, 3, tag+1)}
	got := make(chan float64, 1)
	go func() {
		want.box.await(want, 0)
		m, buf := want.ring.Load().slot(0)
		got <- buf[:m.n][0]
	}()
	if !waitFor(func() bool { return parkedOn(mb, 0) }) {
		t.Fatal("the receive never parked")
	}
	relabel(mb, sleepMark)
	publish := func(l *Link, v float64) {
		s := l.pub.Load()
		if l.ring.Load().width == 0 || s-l.con.Load() == uint64(len(l.ring.Load().msgs)) {
			l.grow(1)
		}
		m, buf := l.ring.Load().slot(s)
		m.n, buf[0] = 1, v
		l.publish(s + 1)
	}
	for i := 0; i < 100; i++ {
		for _, l := range others {
			publish(l, float64(i))
		}
		m := pack([]int{i})
		m.src, m.tag = int32(1+i%2), tag
		mb.put(m)
	}
	if !sleptThrough(mb) {
		t.Fatal("the owner parked on (0, 7) was woken by another link's or the mailbox's message")
	}
	if old := relabel(mb, tag); old != sleepMark {
		t.Fatalf("the wait record changed to tag %d while the owner slept", old)
	}
	publish(want, 42)
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("the parked receive read %v, want 42", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the owner was not woken by the message it was parked on")
	}
}

func link(w *World, src, dst, tag int) *Link { return w.boxes[dst].link(src, dst, tag) }

// TestLinkDeathWaitsForPendingMessages lets rank 0 publish on its link and
// exit before rank 1 receives: the pending message wins over the death, and
// only the next receive unwinds, without moving the clock.
func TestLinkDeathWaitsForPendingMessages(t *testing.T) {
	w := faultWorld(t, 2, 1)
	var got []float64
	var at, unwoundAt float64
	err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
		if r.ID() == 0 {
			r.SendGather(r.LinkTo(1, 3, 2), []float64{5, 6}, []int{1, 0})
			return nil
		}
		l := r.LinkFrom(0, 3)
		if !waitFor(func() bool { return w.rankDead[0].Load() }) {
			return errors.New("rank 0 never exited")
		}
		got = make([]float64, 2)
		r.RecvScatter(l, got, []int{0, 1})
		at = r.Wtime()
		defer func() { unwoundAt = r.Wtime() }()
		r.RecvScatter(l, got, []int{0, 1})
		return errors.New("a second message arrived from a dead sender")
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 || !errors.Is(err, ErrRankDead) {
		t.Fatalf("Run returned %v, want rank 1's ErrRankDead", err)
	}
	if !slices.Equal(got, []float64{6, 5}) || at == 0 {
		t.Fatalf("rank 1 received %v at %v, want [6 5] at the arrival", got, at)
	}
	if unwoundAt != at {
		t.Fatalf("the unwinding receive moved the clock from %v to %v", at, unwoundAt)
	}
}

// TestLinkRecvLengthMismatch: a payload of the wrong length is consumed and
// its return counted before the receive panics, as the mailbox path's
// reject returns the buffer, and a link refuses the wrong rank.
func TestLinkRecvLengthMismatch(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.SendGather(r.LinkTo(1, 3, 3), []float64{1, 2, 3}, []int{0, 1, 2})
			return nil
		}
		r.RecvAddScatter(r.LinkFrom(0, 3), make([]float64, 8), []int{0, 1, 2, 3})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "mp: link payload 3 != positions 4") {
		t.Fatalf("a mismatched receive returned %v, want its panic", err)
	}
	if gets, puts := w.gets.Load(), w.puts.Load(); gets != 1 || puts != 1 {
		t.Fatalf("%d gets, %d puts; want one of each", gets, puts)
	}
	if l := w.boxes[1].links[0]; l.pub.Load() != 1 || l.con.Load() != 1 {
		t.Fatalf("link left at %d published, %d consumed; want the message consumed", l.pub.Load(), l.con.Load())
	}
	w = testWorld(t, 2, 2)
	err = w.Run(func(r *Rank) error {
		r.SendGather(r.LinkFrom(1-r.ID(), 3), nil, nil)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "sends on the link from rank") {
		t.Fatalf("a send on another rank's link returned %v, want a panic", err)
	}
}

// TestLinkSlotMisusePanics: a link gives one slot at a time, so a second
// TakeSlot before SendSlot panics, as do SendSlot or DropSlot with no slot
// taken and a LinkTo that would widen the ring under a taken slot; a slot
// taken and never sent is no message, and a revoke clears it.
func TestLinkSlotMisusePanics(t *testing.T) {
	w := testWorld(t, 2, 2)
	var msgs []string
	err := w.Run(func(r *Rank) error {
		if r.ID() != 0 {
			return nil
		}
		l := r.LinkTo(1, 3, 2)
		for _, misuse := range []func(){
			func() { r.SendSlot(l) },
			func() { r.DropSlot(l) },
			func() { r.TakeSlot(l, 2); r.TakeSlot(l, 1) },
			func() { r.LinkTo(1, 3, 4) },
		} {
			func() {
				defer func() { msgs = append(msgs, fmt.Sprint(recover())) }()
				misuse()
			}()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"mp: rank 0 sends on its link to rank 1 with no slot taken",
		"mp: rank 0 gives back a slot on its link to rank 1 with none taken",
		"mp: rank 0 takes a second slot on its link to rank 1 before sending the first",
		"mp: rank 0 widens its link to rank 1 while filling a slot",
	}
	if !slices.Equal(msgs, want) {
		t.Fatalf("panics %q, want %q", msgs, want)
	}
	l := w.boxes[1].links[0]
	if n := pending(w); n != 0 || l.taken || l.pub.Load() != 0 {
		t.Fatalf("the unsent slot left %d pending, taken %v, %d published; want none", n, l.taken, l.pub.Load())
	}
}

// TestLinkDropSlotSendsNothing: a slot given back unsent is no message, and
// the link gives it again: the receiver gets only what the sent slot holds.
func TestLinkDropSlotSendsNothing(t *testing.T) {
	w := testWorld(t, 2, 2)
	got := make([]float64, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 1 {
			r.RecvScatter(r.LinkFrom(0, 3), got, []int{0, 1})
			return nil
		}
		l := r.LinkTo(1, 3, 2)
		buf := r.TakeSlot(l, 2)
		buf[0], buf[1] = 7, 7
		r.DropSlot(l)
		buf = r.TakeSlot(l, 2)
		buf[0] = 9
		r.SendSlot(l)
		if _, _, msgs, _ := r.Clock().Counters(); msgs != 1 {
			return fmt.Errorf("sent %d messages, want 1", msgs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{9, 7}; !slices.Equal(got, want) {
		t.Fatalf("received %v, want %v", got, want)
	}
}
