// Package mp is the message-passing substrate that stands in for MPI.
//
// A World runs an SPMD body on NRanks ranks; each rank is a goroutine with a
// private mailbox, a virtual clock (internal/vclock) and a view of the job
// topology (which node each rank lives on, which EC2 placement group each
// node belongs to). Point-to-point sends move real data between goroutines
// and simultaneously charge virtual communication time computed by the
// platform's network fabric (internal/netmodel), so a run yields both a
// numerical result that can be verified against exact solutions and a
// per-phase virtual-time profile that stands in for the paper's wall-clock
// measurements.
//
// Collective operations (Barrier, Bcast, ExchangeInts) are implemented on
// top of point-to-point messages with dissemination and binomial-tree
// algorithms, so their virtual cost emerges from the same network model
// rather than being postulated separately. The allreduce — Allreduce, and
// AllreduceScalar for one value — charges exactly what a binomial Reduce and
// Bcast of such messages would, but resolves on state the ranks share
// instead of moving them.
//
// Traffic whose peers, tag and sizes are fixed by a set-up step — the sparse
// importer's halo exchange and a matrix's refill — runs on persistent links
// (link.go), MPI's persistent requests: made once in the destination's
// mailbox, then written and read without its lock, at the same virtual cost
// as a mailbox message. So a time step's traffic never touches the mailbox.
// The mailbox carries the rest through one send and one receive, Send and
// Recv, generic in the element type as MPI_Send and MPI_Recv take a
// datatype: set-up streams (ExchangeInts), checkpoint mirrors and
// redistribution, and the message collectives Barrier and Bcast. A payload is
// handed over, not copied: the receiver gets the slice the sender passed.
package mp

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"heterohpc/internal/netmodel"
	"heterohpc/internal/obs"
	"heterohpc/internal/vclock"
)

// Topology describes how job ranks map onto nodes and placement groups.
type Topology struct {
	// NodeOf maps rank -> node index; its length is the rank count.
	NodeOf []int
	// GroupOfNode maps node index -> placement-group index. All-zero for
	// physical clusters; EC2 "mix" assemblies use several groups.
	GroupOfNode []int
	// ranksOnNode caches the number of job ranks per node (the NIC share).
	ranksOnNode []int
}

// BlockTopology places nranks ranks onto consecutive nodes, ranksPerNode at
// a time, all in placement group 0. This matches how PBS/SGE fill nodes and
// how the paper packed 16 ranks per cc2.8xlarge instance.
func BlockTopology(nranks, ranksPerNode int) (Topology, error) {
	if nranks < 1 {
		return Topology{}, fmt.Errorf("mp: nranks %d < 1", nranks)
	}
	if ranksPerNode < 1 {
		return Topology{}, fmt.Errorf("mp: ranksPerNode %d < 1", ranksPerNode)
	}
	nodeOf := make([]int, nranks)
	for r := range nodeOf {
		nodeOf[r] = r / ranksPerNode
	}
	nnodes := (nranks + ranksPerNode - 1) / ranksPerNode
	return NewTopology(nodeOf, make([]int, nnodes))
}

// NewTopology builds a topology from explicit rank->node and node->group
// maps, validating their consistency.
func NewTopology(nodeOf, groupOfNode []int) (Topology, error) {
	if len(nodeOf) == 0 {
		return Topology{}, fmt.Errorf("mp: empty topology")
	}
	nnodes := len(groupOfNode)
	ranksOn := make([]int, nnodes)
	for r, n := range nodeOf {
		if n < 0 || n >= nnodes {
			return Topology{}, fmt.Errorf("mp: rank %d on node %d, have %d nodes", r, n, nnodes)
		}
		ranksOn[n]++
	}
	for n, k := range ranksOn {
		if k == 0 {
			return Topology{}, fmt.Errorf("mp: node %d has no ranks", n)
		}
	}
	for n, g := range groupOfNode {
		if g < 0 {
			return Topology{}, fmt.Errorf("mp: node %d in negative group %d", n, g)
		}
	}
	return Topology{NodeOf: nodeOf, GroupOfNode: groupOfNode, ranksOnNode: ranksOn}, nil
}

// NRanks returns the number of ranks in the topology.
func (t Topology) NRanks() int { return len(t.NodeOf) }

// NNodes returns the number of nodes in the topology.
func (t Topology) NNodes() int { return len(t.GroupOfNode) }

// SameNode reports whether ranks a and b share a node.
func (t Topology) SameNode(a, b int) bool { return t.NodeOf[a] == t.NodeOf[b] }

// SameGroup reports whether ranks a and b are in the same placement group.
func (t Topology) SameGroup(a, b int) bool {
	return t.GroupOfNode[t.NodeOf[a]] == t.GroupOfNode[t.NodeOf[b]]
}

// NICShare returns the number of job ranks sharing rank r's NIC.
func (t Topology) NICShare(r int) int { return t.ranksOnNode[t.NodeOf[r]] }

// message is one in-flight payload, sized to fit one cache line. Its payload
// is handed over, not copied (see Send): the slice the sender passed.
//
// A message carries one slice of one of the payload element types, so it
// holds one slice header: data, n and c are the first element, length and
// capacity of that slice and kind is its element type. unpack rebuilds the
// slice.
type message struct {
	data unsafe.Pointer
	n, c int
	tag  int
	// arriveAt is the sender's virtual time at which the payload is fully
	// delivered; the receiver's clock advances to at least this time.
	arriveAt float64
	src      int32
	kind     uint8
}

// payload is the element type of a mailbox message.
type payload interface{ float64 | int | byte }

const (
	payF64 uint8 = iota
	payInts
	payBytes
)

// kindOf returns the message kind of element type T.
func kindOf[T payload]() uint8 {
	switch any(*new(T)).(type) {
	case float64:
		return payF64
	case int:
		return payInts
	}
	return payBytes
}

func pack[T payload](p []T) message {
	return message{data: unsafe.Pointer(unsafe.SliceData(p)), n: len(p), c: cap(p), kind: kindOf[T]()}
}

// unpack rebuilds m's payload, which must have element type T: a receive of
// another type than its send is a bug in the program's pairing of the two.
func unpack[T payload](m message) []T {
	if m.kind != kindOf[T]() {
		panic(fmt.Sprintf("mp: a %T receive from rank %d under tag %d found another element type", *new(T), m.src, m.tag))
	}
	return unsafe.Slice((*T)(m.data), m.c)[:m.n]
}

// msgQueue is a FIFO of messages that recycles its backing array: popping
// the last element rewinds the queue in place and a push that finds the
// array's end slides the live window back to its start, so a queue
// reallocates only when more messages are waiting than it has ever held.
type msgQueue struct {
	buf  []message
	head int
}

func (q *msgQueue) push(m message) {
	if len(q.buf) == cap(q.buf) {
		if q.head > 0 {
			// A sender that stays one message ahead of its receiver never
			// lets the queue drain and rewind.
			n := copy(q.buf, q.buf[q.head:])
			clear(q.buf[n:])
			q.buf, q.head = q.buf[:n], 0
		} else if cap(q.buf) == 0 {
			// Most queues hold a handful of messages; skip the 1→2→4 append
			// growth so a queue's backing array is a single allocation.
			q.buf = make([]message, 0, 4)
		}
	}
	q.buf = append(q.buf, m)
}

func (q *msgQueue) empty() bool { return q.head == len(q.buf) }

func (q *msgQueue) len() int { return len(q.buf) - q.head }

func (q *msgQueue) pop() message {
	m := q.buf[q.head]
	q.buf[q.head] = message{} // drop payload references
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m
}

// popTag removes and returns the oldest message with the given tag,
// preserving the order of the rest. Messages of one tag are delivered in
// send order; the scan only walks past head when collectives with distinct
// tags are simultaneously in flight.
func (q *msgQueue) popTag(tag int) (message, bool) {
	for i := q.head; i < len(q.buf); i++ {
		if q.buf[i].tag == tag {
			m := q.buf[i]
			copy(q.buf[i:], q.buf[i+1:])
			q.buf[len(q.buf)-1] = message{}
			q.buf = q.buf[:len(q.buf)-1]
			if q.head == len(q.buf) {
				q.buf = q.buf[:0]
				q.head = 0
			}
			return m, true
		}
	}
	return message{}, false
}

// drop discards the queued messages for which stale(src) holds, keeping the
// order of the rest and the backing array, and returns how many went.
func (q *msgQueue) drop(stale func(src int) bool) int {
	kept := q.buf[:0]
	for _, m := range q.buf[q.head:] {
		if !stale(int(m.src)) {
			kept = append(kept, m)
		}
	}
	n := q.len() - len(kept)
	clear(q.buf[len(kept):])
	q.buf, q.head = kept, 0
	return n
}

// tagQueue is the FIFO of one application tag.
type tagQueue struct {
	tag int
	q   msgQueue
}

// srcSlot is everything one source rank has sent a mailbox's owner and the
// owner has not yet received. Directed traffic (tag >= 0) has one queue per
// tag, and the queues stay resident when drained — the same tags recur every
// iteration.
type srcSlot struct {
	// coll holds collective traffic (tag < 0). Collective tags are unique
	// per collective, so they are matched by a scan of this (nearly always
	// length-≤1) FIFO instead of getting a queue each.
	coll msgQueue
	tags []tagQueue
}

// queue returns the directed queue of tag; nil when src has sent nothing
// under tag.
func (s *srcSlot) queue(tag int) *msgQueue {
	for i := range s.tags {
		if s.tags[i].tag == tag {
			return &s.tags[i].q
		}
	}
	return nil
}

// mailbox is an unbounded matched-receive queue: a map from source rank to
// that source's slot. Every receive names its sender, so take is the only
// way a queued message leaves and its per-sender rule, which a link's await
// shares, the only way a wait unwinds. A source enters the map with its
// first message and stays, so a mailbox's memory follows the number of ranks
// that actually send to its owner — neighbours and barrier partners — not
// the world size.
//
// Only the owning rank's goroutine ever blocks on cond (sends and the
// revoke/markDead paths never wait), and it blocks for one named message.
// Before it parks, take records that (src, tag) in waitSrc and waitTag; the
// record is the wake rule. put signals only when the message it queues is the
// one recorded, and markDead(id) only when the owner is parked on id. Whoever
// wakes the owner clears the record, so no message is signalled twice, and a
// message from any other source or under any other tag leaves the owner
// asleep.
type mailbox struct {
	mu sync.Mutex
	// srcs holds each source's slot; slots stay warm when drained.
	srcs map[int32]*srcSlot
	// filed lists the ranks that have announced a stream to the owner and
	// that the owner has not yet asked for (see ExchangeInts). Like the
	// intern table it belongs to the simulator, not to the simulated job: no
	// clock, message or journal event is involved.
	filed []filing
	// links are the persistent channels to the owner (see link.go), made at
	// set-up under mu and never removed.
	links []*Link
	// w is the owning world; a blocked take consults its per-rank dead
	// flags so a wait on a message that can never arrive (its sender has
	// terminally exited without sending it) unwinds instead of deadlocking
	// (see fault.go).
	w    *World
	cond sync.Cond
	// waitSrc is the source the owner is parked on, noWait when it is not
	// parked. It is written under mu but is atomic because markDead reads it
	// without the lock. waitTag, the tag of that wait, is read and written
	// under mu only.
	waitSrc atomic.Int32
	waitTag int
}

// noWait is the waitSrc of a mailbox whose owner is not parked.
const noWait = -1

func newMailbox(w *World) *mailbox {
	mb := &mailbox{srcs: make(map[int32]*srcSlot), w: w}
	mb.cond.L = &mb.mu
	mb.waitSrc.Store(noWait)
	return mb
}

// put queues m and wakes the owner if it is parked on exactly m's source and
// tag. The owner records its wait under mu before it parks, and cond.Wait
// enrols it before releasing mu, so a put that sees the record can signal
// after unlocking.
func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.queueFor(int(m.src), m.tag).push(m)
	wake := mb.waitSrc.Load() == m.src && mb.waitTag == m.tag
	if wake {
		mb.waitSrc.Store(noWait)
	}
	mb.mu.Unlock()
	if wake {
		mb.cond.Signal()
	}
}

// queueFor routes a message to its FIFO, creating the queue on first use.
// Runs under mb.mu.
func (mb *mailbox) queueFor(src, tag int) *msgQueue {
	s := mb.srcs[int32(src)]
	if s == nil {
		s = new(srcSlot)
		mb.srcs[int32(src)] = s
	}
	if tag < 0 {
		return &s.coll
	}
	if q := s.queue(tag); q != nil {
		return q
	}
	s.tags = append(s.tags, tagQueue{tag: tag})
	return &s.tags[len(s.tags)-1].q
}

// revoke purges the queued messages and pending link messages whose source
// satisfies stale and returns their number. Source slots, their queues and
// the links stay warm. Runs under mb.mu.
func (mb *mailbox) revoke(stale func(src int) bool) int {
	n := mb.revokeLinks(stale)
	for src, s := range mb.srcs {
		if !stale(int(src)) {
			continue
		}
		n += s.coll.drop(stale)
		for i := range s.tags {
			n += s.tags[i].q.drop(stale)
		}
	}
	return n
}

// filing records that rank src will send the owner a stream in the exchange
// that runs under collective tag tag.
type filing struct{ tag, src int }

// file announces src's stream under tag to the owner.
func (mb *mailbox) file(tag, src int) {
	mb.mu.Lock()
	mb.filed = append(mb.filed, filing{tag, src})
	mb.mu.Unlock()
}

// senders removes the filings under tag and returns their ranks in ascending
// order; want, the number the caller expects, sizes the result.
func (mb *mailbox) senders(tag, want int) []int {
	srcs := make([]int, 0, want)
	mb.mu.Lock()
	kept := mb.filed[:0]
	for _, f := range mb.filed {
		if f.tag == tag {
			srcs = append(srcs, f.src)
		} else {
			kept = append(kept, f)
		}
	}
	mb.filed = kept
	mb.mu.Unlock()
	slices.Sort(srcs)
	return srcs
}

// take blocks until a message with the given src and tag is available and
// removes the oldest match (messages between a fixed pair with a fixed tag
// are delivered in order).
//
// Pending messages win over death: a payload the sender put before dying is
// still delivered, so a rank's progress depends only on what its peers
// deterministically sent, never on wall-clock racing against the poison
// flag. Only when no message is queued AND the sender has terminally
// exited — it can never send again — does the wait unwind with
// killedPanic. This is the only blocking path of the transport, and it never
// reads the world's poison flag.
//
// The wait record must be published before the dead flag is read (see
// markDead).
func (mb *mailbox) take(src, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if s := mb.srcs[int32(src)]; s != nil {
			if tag < 0 {
				if m, ok := s.coll.popTag(tag); ok {
					return m
				}
			} else if q := s.queue(tag); q != nil && !q.empty() {
				return q.pop()
			}
		}
		mb.waitTag = tag
		mb.waitSrc.Store(int32(src))
		if mb.w.rankDead[src].Load() {
			mb.waitSrc.Store(noWait)
			panic(killedPanic{})
		}
		mb.cond.Wait()
	}
}

// World owns the ranks, clocks and fabric of one SPMD job.
type World struct {
	topo   Topology
	fabric *netmodel.Fabric
	rater  vclock.ComputeRater
	clocks []*vclock.Clock
	boxes  []*mailbox
	// gets and puts total the payload draws and returns of the ranks that
	// have exited (see Rank.gets), for the journal's "pool" event.
	gets, puts atomic.Int64
	// interns shares immutable host-side values between ranks, and between
	// the worlds that point at the same table (see intern.go).
	interns *InternTable

	// obsRun/recs are the attached observability sink and its per-rank
	// recorders (nil when the world is unobserved; see Observe).
	obsRun *obs.Run
	recs   []*obs.Recorder

	// consumed marks a world Reform has re-formed; it must not Run again
	// (Reform revoked its mailboxes).
	consumed bool

	// allreduce is the shared state of Allreduce and AllreduceScalar, set up
	// by Run.
	allreduce allreduceColl

	// Fault-injection state (see fault.go). killAt and degrades are fixed
	// before Run; down/failure, under failMu, record the first scheduled
	// crash reached. They are a report for Failure's callers — Run's error
	// text, Reform — and no rank's progress depends on them: rankDead[i]
	// is set once rank i's goroutine has terminally exited (fault, error or
	// completion) and can never send again, and it is what a blocked receive
	// from rank i consults to unwind instead of waiting.
	killAt   []float64
	degrades []degradeWindow
	failMu   sync.Mutex
	down     bool
	failure  Failure
	rankDead []atomic.Bool
}

// NewWorld builds a world for the given topology over the given fabric.
// Every rank gets a virtual clock driven by rater (the platform's per-core
// compute model).
func NewWorld(topo Topology, fabric *netmodel.Fabric, rater vclock.ComputeRater) (*World, error) {
	if topo.NRanks() == 0 {
		return nil, fmt.Errorf("mp: world needs a topology; use BlockTopology")
	}
	if fabric == nil {
		return nil, fmt.Errorf("mp: nil fabric")
	}
	if rater == nil {
		return nil, fmt.Errorf("mp: nil compute rater")
	}
	p := topo.NRanks()
	w := &World{
		topo:     topo,
		fabric:   fabric,
		rater:    rater,
		clocks:   make([]*vclock.Clock, p),
		boxes:    make([]*mailbox, p),
		rankDead: make([]atomic.Bool, p),
		interns:  new(InternTable),
	}
	for i := 0; i < p; i++ {
		w.clocks[i] = vclock.New(rater)
		w.boxes[i] = newMailbox(w)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.topo.NRanks() }

// Topology returns the world's rank/node/group layout.
func (w *World) Topology() Topology { return w.topo }

// Clocks returns the per-rank virtual clocks (valid after Run for reports).
func (w *World) Clocks() []*vclock.Clock { return w.clocks }

// Observe attaches an observability sink to the world: every rank gets an
// event recorder bound to its virtual clock, phase transitions are mirrored
// into the journal, and FlushObs reports the payload traffic. Must be
// called before Run; a nil run leaves the world unobserved (the default,
// which costs nothing on the message hot paths).
func (w *World) Observe(run *obs.Run) {
	if run == nil {
		return
	}
	w.obsRun = run
	w.recs = make([]*obs.Recorder, len(w.clocks))
	for i, clk := range w.clocks {
		rec := run.NewRecorder(i, clk)
		w.recs[i] = rec
		clk.SetPhaseListener(func(t float64, _, to vclock.Phase) {
			rec.Phase(t, to.String())
		})
	}
}

// FlushObs emits the world-level end-of-run observations (payload
// traffic) to the run's global recorder, stamped at the world's final
// virtual time. Call once after Run has returned; a no-op when the world is
// unobserved.
func (w *World) FlushObs() {
	if w.obsRun == nil {
		return
	}
	gets, puts := w.gets.Load(), w.puts.Load()
	if gets+puts > 0 {
		w.obsRun.Global().PoolStats(w.MaxVirtualTime(), gets, puts)
	}
}

// RankError wraps an error raised by one rank of an SPMD body.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }

// Unwrap returns the underlying rank error.
func (e *RankError) Unwrap() error { return e.Err }

// Run executes body on every rank concurrently and returns the first error
// (by rank order) if any rank fails or panics. Run may be called once per
// World.
func (w *World) Run(body func(r *Rank) error) error {
	if w.consumed {
		return fmt.Errorf("mp: world was consumed by Reform; run the re-formed world instead")
	}
	p := w.Size()
	errs := make([]error, p)
	w.allreduce.slots = make([]allreduceSlot, p)
	for i := range w.allreduce.slots {
		rank := &Rank{world: w, id: i, clk: w.clocks[i]}
		if w.recs != nil {
			rank.rec = w.recs[i]
		}
		w.allreduce.slots[i] = allreduceSlot{r: rank, wake: make(chan struct{}, 1)}
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for i := range w.allreduce.slots {
		go func(rk *Rank) {
			defer wg.Done()
			defer func() {
				w.gets.Add(rk.gets)
				w.puts.Add(rk.puts)
			}()
			// Runs after the recover below: whatever way the rank exits,
			// it can never send again, so waiters on its messages must be
			// woken to observe the death instead of sleeping forever.
			defer w.markDead(rk.id)
			defer func() {
				if rec := recover(); rec != nil {
					if _, dead := rec.(killedPanic); dead {
						if f, down := w.Failure(); down {
							errs[rk.id] = fmt.Errorf("node %d failed at virtual t=%.3fs: %w",
								f.Node, f.At, ErrRankDead)
						} else {
							errs[rk.id] = fmt.Errorf("peer rank exited before sending: %w", ErrRankDead)
						}
						return
					}
					errs[rk.id] = fmt.Errorf("panic: %v", rec)
				}
			}()
			errs[rk.id] = body(rk)
		}(w.allreduce.slots[i].r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return &RankError{Rank: i, Err: err}
		}
	}
	return nil
}

// Rank is one SPMD process: the handle through which application code sends,
// receives and charges compute time.
type Rank struct {
	world *World
	id    int
	clk   *vclock.Clock
	// gets and puts count the payloads the rank has sent and received, in
	// the terms of the journal's "pool" event (World.FlushObs): every
	// non-empty f64 send is a get, every scattering receive a put.
	gets, puts int64
	// census is ExchangeInts' P-length indicator, kept between calls.
	census []float64
	// rec is the rank's event recorder (nil unless the world is observed;
	// all its methods are nil-safe no-ops).
	rec *obs.Recorder
	// collSeq disambiguates successive collectives; all ranks execute the
	// same collective sequence, so equal sequence numbers match up.
	collSeq int
}

// ID returns the rank number in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the world.
func (r *Rank) Size() int { return r.world.Size() }

// Clock returns the rank's virtual clock.
func (r *Rank) Clock() *vclock.Clock { return r.clk }

// Topology returns the world's layout.
func (r *Rank) Topology() Topology { return r.world.topo }

// Wtime returns the rank's current virtual time (the MPI_Wtime analogue).
func (r *Rank) Wtime() float64 { return r.clk.Now() }

// Obs returns the rank's event recorder, nil when the world is unobserved.
// Application code passes it to instrumented kernels; every method on the
// nil recorder is a free no-op.
func (r *Rank) Obs() *obs.Recorder { return r.rec }

// noteRecv advances the receiver's clock to the message's arrival time and,
// when observed, records the message's virtual mailbox-residency interval
// (from its arrival to the moment this rank consumed it).
func (r *Rank) noteRecv(arriveAt float64) {
	r.clk.AdvanceTo(arriveAt)
	if r.rec != nil {
		r.rec.QueueInterval(arriveAt, r.clk.Now())
	}
}

// ChargeCompute records local floating-point work on this rank.
func (r *Rank) ChargeCompute(flops, bytes float64) { r.clk.ChargeCompute(flops, bytes) }

// msgHeaderBytes approximates per-message protocol overhead.
const msgHeaderBytes = 64

// PriceBytes returns the virtual seconds one payload of payloadBytes takes
// from rank src to rank dst on this world's fabric: header overhead and NIC
// sharing included, degradation windows not, and no clock advanced. Every
// send is charged this price times the sender's degradation factor; the
// supervisor uses it to cost a notice-window evacuation before committing to
// it.
func (w *World) PriceBytes(src, dst, payloadBytes int) float64 {
	return w.fabric.P2P(
		payloadBytes+msgHeaderBytes,
		w.topo.SameNode(src, dst),
		w.topo.SameGroup(src, dst),
		w.topo.NICShare(src),
	)
}

// chargeSend advances the sender clock for a payload of n bytes to dst and
// returns the virtual arrival time at dst.
func (r *Rank) chargeSend(dst, payloadBytes int) float64 {
	t := r.world.PriceBytes(r.id, dst, payloadBytes) * r.commFactor()
	start := r.clk.Now()
	r.clk.ChargeComm(t, payloadBytes)
	r.rec.CountMsg(payloadBytes)
	return start + t
}

// checkDst is the first step of every send: the destination must be a rank
// of this world, and this rank's node must still be alive.
func (r *Rank) checkDst(dst int) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mp: send to invalid rank %d", dst))
	}
	r.checkFault()
}

// Send sends data to rank dst with the given tag (tag >= 0 is reserved for
// applications; collectives use negative tags internally), charging
// unsafe.Sizeof(T)·len(data) payload bytes on the wire. Like MPI_Send it
// returns without waiting for the receive (sends are buffered, so an
// exchange cannot deadlock), but the payload is handed over, not copied: the
// sender must not write data after sending it, and a receiver may write the
// slice Recv returns only if no other rank holds it — its sender does not
// keep it, nor send it to another rank too.
func Send[T payload](r *Rank, dst, tag int, data []T) {
	r.checkDst(dst)
	m := pack(data)
	if m.kind == payF64 && len(data) > 0 {
		r.gets++
	}
	m.src, m.tag = int32(r.id), tag
	m.arriveAt = r.chargeSend(dst, int(unsafe.Sizeof(*new(T)))*len(data))
	r.world.boxes[dst].put(m)
}

// Recv blocks until the message from rank src under tag arrives, advances
// this rank's clock to its arrival time and returns its payload, the slice
// its sender handed over (see Send). A message of another element type than
// T panics, naming src and tag.
func Recv[T payload](r *Rank, src, tag int) []T {
	r.checkFault()
	m := r.world.boxes[r.id].take(src, tag)
	r.noteRecv(m.arriveAt)
	r.checkFault()
	return unpack[T](m)
}

// RecvF64AddScatter receives like Recv[float64] and adds payload element j
// into x[pos[j]], counting the payload's return; the payload must have
// exactly len(pos) elements. No production path calls it: it is the mailbox
// receive that the tests hold a link's RecvAddScatter to, in the references
// of the importer's export and of a matrix's refill.
func (r *Rank) RecvF64AddScatter(src, tag int, x []float64, pos []int) {
	buf := Recv[float64](r, src, tag)
	r.puts++
	if len(buf) != len(pos) {
		panic(fmt.Sprintf("mp: RecvF64AddScatter payload %d != positions %d", len(buf), len(pos)))
	}
	for j, l := range pos {
		x[l] += buf[j]
	}
}

// SendRecvF64 exchanges float64 slices with a peer (both sides must call
// it): Send of send, then Recv from the peer, under Send's hand-over
// contract. Sends are buffered, so the exchange cannot deadlock.
func (r *Rank) SendRecvF64(peer, tag int, send []float64) []float64 {
	Send(r, peer, tag, send)
	return Recv[float64](r, peer, tag)
}
