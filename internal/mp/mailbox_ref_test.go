package mp

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// refMailbox is the mailbox as it was before its per-source FIFOs, kept as
// the reference model: directed traffic in a map of FIFOs keyed by
// (src, tag), collective traffic in a world-sized array of per-source FIFOs
// matched by tag. The scripts below drive it and the real mailbox, one FIFO
// per source for every tag, with the same operations and demand the same
// deliveries, panics and revocation counts.
type refMailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending map[refKey]*msgQueue
	coll    []msgQueue
	w       *World
}

type refKey struct{ src, tag int }

func newRefMailbox(w *World) *refMailbox {
	mb := &refMailbox{pending: map[refKey]*msgQueue{}, w: w}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *refMailbox) put(m message) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if m.tag < 0 {
		if mb.coll == nil {
			mb.coll = make([]msgQueue, len(mb.w.boxes))
		}
		mb.coll[m.src].push(m)
		return
	}
	k := refKey{int(m.src), m.tag}
	q := mb.pending[k]
	if q == nil {
		q = new(msgQueue)
		mb.pending[k] = q
	}
	q.push(m)
}

func (mb *refMailbox) take(src, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if tag < 0 {
		for {
			if mb.coll != nil {
				if m, ok := mb.coll[src].popTag(tag); ok {
					return m
				}
			}
			if mb.w.rankDead[src].Load() {
				panic(killedPanic{})
			}
			mb.cond.Wait()
		}
	}
	k := refKey{src, tag}
	for {
		if q := mb.pending[k]; q != nil {
			if m, ok := q.popTag(tag); ok {
				return m
			}
		}
		if mb.w.rankDead[src].Load() {
			panic(killedPanic{})
		}
		mb.cond.Wait()
	}
}

// shrinkRevoke is the revocation sweep Reform runs over one map-based
// mailbox.
func (mb *refMailbox) shrinkRevoke(ownerDead bool, dead []bool) (revoked int) {
	for k, q := range mb.pending {
		if ownerDead || dead[k.src] {
			revoked += q.len()
			delete(mb.pending, k)
		}
	}
	for src := range mb.coll {
		if q := &mb.coll[src]; ownerDead || dead[src] {
			revoked += q.len()
			*q = msgQueue{}
		}
	}
	return revoked
}

// eitherMailbox is what a script drives: both implementations behind one
// face.
type eitherMailbox interface {
	put(m message)
	take(src, tag int) message
}

// delivery is the observable outcome of one receive: the message's envelope
// and serial number, or the panic it raised.
type delivery struct {
	src, tag, serial int
	panicked         string
}

func receive(op func() message) (d delivery) {
	defer func() {
		if rec := recover(); rec != nil {
			d = delivery{panicked: fmt.Sprintf("%T %v", rec, rec)}
		}
	}()
	m := op()
	return delivery{src: int(m.src), tag: m.tag, serial: unpack[int](m)[0]}
}

// mailboxScript generates one seeded sequence of operations and replays it
// on any mailbox. Because nothing else runs, it may only issue a receive
// that cannot block: one whose message is known to be queued, or one from a
// source already marked dead (which unwinds with killedPanic). The script
// therefore keeps its own count of what is queued where.
type mailboxScript struct {
	rng     *rand.Rand
	sources []int // candidate senders; the first half are marked dead
	dirTags []int // directed application tags
	serial  int

	dir     map[refKey]int // queued directed messages per (src, tag)
	coll    map[refKey]int // queued collective messages per (src, tag)
	collSeq int
}

func newMailboxScript(seed int64, sources []int) *mailboxScript {
	return &mailboxScript{
		rng:     rand.New(rand.NewSource(seed)),
		sources: sources,
		dirTags: []int{3, 1001, 1101, 1103, 104, 76, 1000, 1100, 1064},
		dir:     map[refKey]int{},
		coll:    map[refKey]int{},
	}
}

func (s *mailboxScript) pick(xs []int) int { return xs[s.rng.Intn(len(xs))] }

// pickQueued returns a key of m with a positive count, chosen by the rng
// from the sorted candidates so that the choice does not depend on map
// order.
func (s *mailboxScript) pickQueued(m map[refKey]int) (refKey, bool) {
	var keys []refKey
	for k, c := range m {
		if c > 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return refKey{}, false
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].tag < keys[j].tag
	})
	return keys[s.rng.Intn(len(keys))], true
}

// send puts one message, carrying the next serial number, into both
// mailboxes.
func (s *mailboxScript) send(a, b eitherMailbox, src, tag int) {
	for _, mb := range []eitherMailbox{a, b} {
		m := pack([]int{s.serial})
		m.src, m.tag = int32(src), tag
		mb.put(m)
	}
	s.serial++
}

// step issues one random operation on both mailboxes and returns what each
// observed (zero deliveries for a put).
func (s *mailboxScript) step(a, b eitherMailbox, w *World) (da, db delivery) {
	both := func(op func(mb eitherMailbox) message) (delivery, delivery) {
		return receive(func() message { return op(a) }), receive(func() message { return op(b) })
	}
	switch k := s.rng.Intn(18); {
	case k < 6: // directed put
		src, tag := s.pick(s.sources), s.pick(s.dirTags)
		s.send(a, b, src, tag)
		s.dir[refKey{src, tag}]++
	case k < 10: // collective put: a few tags in flight per source at once
		src, tag := s.pick(s.sources), -(1 + (s.collSeq+s.rng.Intn(3))*collKinds + kindReduce)
		s.collSeq += s.rng.Intn(2)
		s.send(a, b, src, tag)
		s.coll[refKey{src, tag}]++
	case k < 14: // directed take of something queued
		if key, ok := s.pickQueued(s.dir); ok {
			s.dir[key]--
			return both(func(mb eitherMailbox) message { return mb.take(key.src, key.tag) })
		}
	case k < 17: // collective take of something queued
		if key, ok := s.pickQueued(s.coll); ok {
			s.coll[key]--
			return both(func(mb eitherMailbox) message { return mb.take(key.src, key.tag) })
		}
	default: // a receive that must unwind
		if src := s.pick(s.sources); w.rankDead[src].Load() {
			// Nothing queued from a dead source under a fresh tag.
			tag := 5000 + s.rng.Intn(3)
			if s.rng.Intn(2) == 0 {
				tag = -(1 + (s.collSeq+100)*collKinds)
			}
			return both(func(mb eitherMailbox) message { return mb.take(src, tag) })
		}
	}
	return delivery{}, delivery{}
}

// TestMailboxMatchesMapReference drives the mailbox, one FIFO per source, and
// the (src, tag)-keyed reference with seeded random scripts: puts and takes
// over more than a hundred sources, application and collective tags
// interleaved per source, receives from dead sources that must unwind, then
// Reform's revoke sweep as a surviving owner, more traffic, and the sweep as
// a dead owner. Every delivery, every panic and both revoked counts must
// agree.
func TestMailboxMatchesMapReference(t *testing.T) {
	const p = 160
	for seed := int64(1); seed <= 12; seed++ {
		w := testWorld(t, p, 8)
		// Sources spread over the world; the first half are dead, so empty
		// receives from them unwind.
		var sources []int
		for i := 0; i < 110; i++ {
			sources = append(sources, (i*37+int(seed))%p)
		}
		dead := make([]bool, p)
		for _, src := range sources[:len(sources)/2] {
			dead[src] = true
			w.rankDead[src].Store(true)
		}
		got, want := newMailbox(w), newRefMailbox(w)
		s := newMailboxScript(seed, sources)
		run := func(steps int, phase string) {
			t.Helper()
			for i := 0; i < steps; i++ {
				dg, dw := s.step(got, want, w)
				if dg != dw {
					t.Fatalf("seed %d %s step %d: mailbox delivered %+v, reference %+v", seed, phase, i, dg, dw)
				}
			}
		}
		run(4000, "before")
		if len(got.srcs) < 49 {
			t.Fatalf("seed %d: %d sources; the script should reach at least 49", seed, len(got.srcs))
		}

		// Revoke: sweep as a surviving owner, then as a dead one.
		rg := got.revoke(func(src int) bool { return dead[src] })
		if rw := want.shrinkRevoke(false, dead); rg != rw {
			t.Fatalf("seed %d: revoke revoked %d, reference %d", seed, rg, rw)
		}
		for k := range s.dir {
			if dead[k.src] {
				delete(s.dir, k)
			}
		}
		for k := range s.coll {
			if dead[k.src] {
				delete(s.coll, k)
			}
		}
		run(1500, "after revoke sweep")
		rg = got.revoke(func(int) bool { return true })
		if rw := want.shrinkRevoke(true, dead); rg != rw {
			t.Fatalf("seed %d: dead-owner revoke revoked %d, reference %d", seed, rg, rw)
		}
	}
}

// The two schedules of a sender that dies, for an application tag and for a
// collective one (the streams of ExchangeInts travel under the latter), on
// both implementations. A sender that dies having sent nothing: the receive
// unwinds with killedPanic — and with nothing else, so the receiver's clock
// stays where it was. A sender that puts and then dies: the payload is
// delivered first, and only the receive after it unwinds.
func TestTakeFromDeadSender(t *testing.T) {
	for name, mk := range map[string]func(w *World) eitherMailbox{
		"mailbox":   func(w *World) eitherMailbox { return newMailbox(w) },
		"reference": func(w *World) eitherMailbox { return newRefMailbox(w) },
	} {
		for _, tag := range []int{1000, -(1 + 5*collKinds + kindExchange)} {
			w := testWorld(t, 4, 2)
			mb := mk(w)
			// Rank 3 puts before it dies, rank 2 dies silent; rank 1 lives on
			// and its traffic is untouched by either death.
			for src := 1; src <= 3; src += 2 {
				m := pack([]int{src})
				m.src, m.tag = int32(src), tag
				mb.put(m)
			}
			w.rankDead[2].Store(true)
			w.rankDead[3].Store(true)
			take := func(src int) delivery { return receive(func() message { return mb.take(src, tag) }) }
			if d := take(2); d.panicked != "mp.killedPanic {}" {
				t.Errorf("%s tag %d: receive from a sender that died silent gave %+v, want killedPanic", name, tag, d)
			}
			if d := take(3); d != (delivery{src: 3, tag: tag, serial: 3}) {
				t.Errorf("%s tag %d: the payload of a sender that put and died was not delivered: %+v", name, tag, d)
			}
			if d := take(3); d.panicked != "mp.killedPanic {}" {
				t.Errorf("%s tag %d: second receive from the dead sender gave %+v, want killedPanic", name, tag, d)
			}
			if d := take(1); d != (delivery{src: 1, tag: tag, serial: 1}) {
				t.Errorf("%s tag %d: live sender's message came out as %+v", name, tag, d)
			}
		}
	}
}
