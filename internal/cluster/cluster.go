package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"hetsort/internal/diskio"
	"hetsort/internal/metrics"
	"hetsort/internal/pdm"
	"hetsort/internal/record"
	"hetsort/internal/trace"
	"hetsort/internal/vtime"
)

// message is one point-to-point transfer.  Send copies the payload so
// the sender may reuse its buffer; SendOwned transfers ownership of a
// (typically pooled) buffer without copying.
type message struct {
	tag     int
	keys    []record.Key
	arrival float64 // virtual time at which the message reaches the receiver
	remote  bool    // false for self-sends, which are free
}

// Config describes a cluster to build.
type Config struct {
	// Slowdowns has one entry per node: the factor by which the
	// node's local work is slower than the fastest class (>= 1).
	// {1,1,4,4} models the paper's cluster with two loaded nodes.
	Slowdowns []float64
	// Net is the interconnect model (default FastEthernet).
	Net NetModel
	// Cost converts work units to virtual seconds (default
	// vtime.DefaultCostModel).
	Cost vtime.CostModel
	// BlockKeys is the disk block size B in keys, used to price block
	// transfers (default 2048 keys = 8 KiB).
	BlockKeys int
	// Disks returns the private filesystem of node id.  Default: a
	// fresh MemFS per node.
	Disks func(id int) diskio.FS
	// DisksPerNode is the PDM D parameter per node.  With D > 1 block u
	// of every node file is served by member disk u mod D (the files
	// themselves stay plain; see diskio.Accounting) and each disk gets
	// its own virtual-time queue: block transfers to distinct disks
	// coalesce into one parallel I/O step that completes when the
	// slowest involved disk does, while transfers hitting the same
	// disk serialize.  The I/O
	// *count* (the PDM complexity measure) is unchanged — only time
	// parallelizes, and only as far as the access pattern actually
	// spreads over the disks.  Default 1, the paper's configuration
	// ("we have one disk attached per processor").
	DisksPerNode int
	// DiskAccess selects how a node's D disks are driven (pdm.Striped,
	// the default, or pdm.Independent).  Striped mode additionally
	// requires round-robin disk order within a parallel step — the
	// "one logical disk with block size D*B" discipline — so an access
	// pattern that skips around closes steps early and loses
	// parallelism; independent mode lets any set of distinct disks
	// share a step.  Irrelevant at D=1.
	DiskAccess pdm.AccessMode
	// Trace, when non-nil, receives message and phase events with
	// virtual timestamps.
	Trace *trace.Log
}

// linkState is one directed link: an unbounded FIFO of messages, so a
// send never blocks and never fails, and a send-all-then-receive-all
// exchange needs no capacity plan.  Only the link's sender appends and
// only its receiver pops.  A link materializes on its first send or
// receive, so an idle link costs one pointer — a flat all-to-all still
// touches all p² links, but tree and grid topologies touch
// O(p·r·log_r p) and the rest stay unallocated.
type linkState struct {
	mu   sync.Mutex
	msgs []message // queued from head on; the array is reused once drained
	head int
	hwm  atomic.Int64 // peak queue depth since the last Run started; written under mu
}

// push appends msg for the receiving node to and reports whether the
// link went from empty to non-empty.  That 0→1 transition counts the
// link into to's fan-in; it pairs with exactly one 1→0 transition in
// pop, under the same lock, so fan-in never undershoots.
func (l *linkState) push(msg message, to *Node) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.msgs = append(l.msgs, msg)
	depth := len(l.msgs) - l.head
	if int64(depth) > l.hwm.Load() {
		l.hwm.Store(int64(depth))
	}
	if depth == 1 {
		casMax(&to.faninHWM, to.fanin.Add(1))
	}
	return depth == 1
}

// pop removes the oldest message for the receiving node to; ok is false
// when the link is empty.
func (l *linkState) pop(to *Node) (msg message, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head == len(l.msgs) {
		return message{}, false
	}
	msg = l.msgs[l.head]
	l.msgs[l.head] = message{}
	l.head++
	if l.head == len(l.msgs) {
		l.msgs, l.head = l.msgs[:0], 0
		to.fanin.Add(-1)
	}
	return msg, true
}

// casMax raises a to at least v.
func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Cluster is a simulated machine of P nodes.
type Cluster struct {
	nodes []*Node
	net   NetModel
	trace *trace.Log

	links []atomic.Pointer[linkState] // row-major [from*p+to], created on first use

	abortMu   sync.Mutex    // guards abort/abortOnce against Interrupt
	abort     chan struct{} // closed by Interrupt during Run
	abortOnce *sync.Once
}

// payloads recycles message payload buffers (senders acquire, receivers
// release) across every cluster in the process, as diskio's block pools
// do: a receiver that merges in-stream holds its messages until the merge
// reaches them, so one exchange can need a buffer for nearly every
// message, and the next sort, or a concurrent tenant's, reuses them.
// There is one pool per power-of-two capacity, holding a buffer as the
// pointer to its first key, so that a release allocates nothing.
var payloads [40]sync.Pool

// Interrupt aborts a Run in progress from outside the node goroutines:
// every node blocked in a receive, collective or barrier returns an
// error, exactly as if its peer had failed.  Interruption is best-effort
// — a node deep in a compute or disk phase notices only at its next
// blocking receive.  Safe to call concurrently with Run; a no-op when
// no Run is active.  The hetsortd service uses it to cancel running
// jobs and to shut down.
func (c *Cluster) Interrupt() {
	c.abortMu.Lock()
	defer c.abortMu.Unlock()
	if c.abort == nil || c.abortOnce == nil {
		return
	}
	c.abortOnce.Do(func() { close(c.abort) })
}

// LinkBound is a no-op kept for bench/replay.go's one call until that
// call goes: links are unbounded, so there is no capacity to compute.
func LinkBound(maxKeys int64, messageKeys int) int { return 0 }

// EnsureLinkCapacity is a no-op kept for bench/replay.go's one call
// until that call goes: links are unbounded, so there is nothing to size.
func (c *Cluster) EnsureLinkCapacity(msgs int) {}

// link returns the link from→to, creating it on first use.  Safe to
// call from any node goroutine.
func (c *Cluster) link(from, to int) *linkState {
	lp := &c.links[from*len(c.nodes)+to]
	if l := lp.Load(); l != nil {
		return l
	}
	lp.CompareAndSwap(nil, new(linkState))
	return lp.Load()
}

// LinksCreated returns the number of links that have materialized —
// the measure of resident link state.
func (c *Cluster) LinksCreated() int {
	created := 0
	for i := range c.links {
		if c.links[i].Load() != nil {
			created++
		}
	}
	return created
}

// The metrics keys under which Run leaves each node's contention
// accounting: the peak number of in-links holding queued messages at
// once, and LinkQueueHWM.  How far the queues back up follows the host's
// scheduling of the node goroutines, not the model, so two runs of one
// sort may differ in both.
const (
	FanInHWMKey     = "net.fanin.hwm"
	LinkQueueHWMKey = "net.link.queue.hwm"
)

// LinkQueueHWM returns the worst per-link queue high-water mark over
// node id's incoming links during the last Run.
func (c *Cluster) LinkQueueHWM(id int) int64 {
	var m int64
	for from := range c.nodes {
		if l := c.links[from*len(c.nodes)+id].Load(); l != nil {
			m = max(m, l.hwm.Load())
		}
	}
	return m
}

// CrashError is the failure a scheduled crash injects: the node stops
// mid-run exactly as if its process had died, and the peers that wait on
// it abort.
type CrashError struct {
	Node  int
	Clock float64 // virtual time of death
	Point string  // the crash point that fired ("" for clock-triggered)
}

func (e *CrashError) Error() string {
	if e.Point != "" {
		return fmt.Sprintf("cluster: node %d crashed (injected) at %.6fs, point %q", e.Node, e.Clock, e.Point)
	}
	return fmt.Sprintf("cluster: node %d crashed (injected) at %.6fs", e.Node, e.Clock)
}

// IsCrash reports whether err contains an injected CrashError (possibly
// joined with peer abort errors).
func IsCrash(err error) bool {
	var ce *CrashError
	return errors.As(err, &ce)
}

// ScheduleCrash arranges for node id to die during the next Run: when
// its virtual clock reaches atClock (>= 0), or when it executes the
// crash point named atPoint (see Node.CrashPoint), whichever triggers
// first.  Pass atClock < 0 to disable the clock trigger and atPoint ""
// to disable the point trigger.  The schedule is one-shot: it clears
// once fired, so a subsequent (recovery) Run proceeds normally.
func (c *Cluster) ScheduleCrash(id int, atClock float64, atPoint string) error {
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("cluster: cannot schedule crash on invalid rank %d", id)
	}
	n := c.nodes[id]
	n.crashClock = atClock
	n.crashPoint = atPoint
	n.crashArmed = atClock >= 0 || atPoint != ""
	return nil
}

// ClearCrashes disarms every scheduled crash (between a failed run and
// its recovery run).
func (c *Cluster) ClearCrashes() {
	for _, n := range c.nodes {
		n.crashArmed = false
		n.crashClock = -1
		n.crashPoint = ""
	}
}

// New builds a cluster from cfg.
func New(cfg Config) (*Cluster, error) {
	p := len(cfg.Slowdowns)
	if p == 0 {
		return nil, errors.New("cluster: need at least one node")
	}
	for i, s := range cfg.Slowdowns {
		// !(s >= 1) rather than s < 1: NaN compares false either way
		// and must be rejected, not admitted.
		if !(s >= 1) || math.IsInf(s, 1) {
			return nil, fmt.Errorf("cluster: slowdown[%d]=%v must be a finite value >= 1", i, s)
		}
	}
	if cfg.Net == (NetModel{}) {
		cfg.Net = FastEthernet()
	}
	if cfg.Cost == (vtime.CostModel{}) {
		cfg.Cost = vtime.DefaultCostModel()
	}
	if cfg.BlockKeys <= 0 {
		cfg.BlockKeys = 2048
	}
	if cfg.Disks == nil {
		cfg.Disks = func(int) diskio.FS { return diskio.NewMemFS() }
	}
	if cfg.DisksPerNode <= 0 {
		cfg.DisksPerNode = 1
	}
	c := &Cluster{net: cfg.Net, trace: cfg.Trace}
	c.links = make([]atomic.Pointer[linkState], p*p)
	c.nodes = make([]*Node, p)
	for i := 0; i < p; i++ {
		n := &Node{
			id:       i,
			cluster:  c,
			slowdown: cfg.Slowdowns[i],
			cost:     cfg.Cost,
			block:    cfg.BlockKeys,
			disks:    cfg.DisksPerNode,
			access:   cfg.DiskAccess,
			fs:       cfg.Disks(i),
			metrics:  metrics.NewRegistry(),
			wake:     make(chan struct{}, 1),
		}
		n.initDiskQueues()
		n.initMetricHandles()
		c.nodes[i] = n
	}
	return c, nil
}

// P returns the number of nodes.
func (c *Cluster) P() int { return len(c.nodes) }

// Node returns node id (for inspection after a run).
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// MaxClock returns the makespan: the maximum node clock, i.e. the
// virtual execution time of the last parallel section run.
func (c *Cluster) MaxClock() float64 {
	var m float64
	for _, n := range c.nodes {
		if n.clock > m {
			m = n.clock
		}
	}
	return m
}

// ResetClocks zeroes every node clock, I/O counter, time attribution
// and metrics registry (between repetitions of an experiment).
func (c *Cluster) ResetClocks() {
	for _, n := range c.nodes {
		n.clock = 0
		n.liveClock.Store(0)
		n.attr = vtime.Breakdown{}
		n.overlapCaps = nil
		n.overlapCap = 0
		n.overlapCredit = 0
		n.counter.Reset()
		n.metrics.Reset()
		for d := range n.diskCounters {
			n.diskCounters[d].Reset()
			n.diskDone[d] = 0
			n.diskBusy[d] = 0
			n.stripeUsed[d] = false
		}
		n.stripeOpen = false
		n.stripeIssue = 0
		n.prevDisk = n.disks - 1
		n.ioSteps = 0
		n.stepBlocks = 0
	}
}

// Run executes fn concurrently on every node and waits for all to
// finish.  Errors from all nodes are joined; the virtual clocks remain
// readable afterwards.  A node that fails aborts only what depends on
// it: a receive from a node that has returned fails once the link is
// drained, so failures cascade along the waits in an order the
// communication pattern fixes, not the host's scheduling.
func (c *Cluster) Run(fn func(*Node) error) error {
	errs := make([]error, len(c.nodes))
	c.abortMu.Lock()
	c.abort = make(chan struct{})
	c.abortOnce = new(sync.Once)
	c.abortMu.Unlock()
	// Drop any messages a previous aborted run left in the links, so
	// the cluster is reusable after a failure, and zero the per-run
	// queue accounting.  No node goroutine is running yet.
	for i := range c.links {
		if l := c.links[i].Load(); l != nil {
			clear(l.msgs)
			l.msgs, l.head = l.msgs[:0], 0
			l.hwm.Store(0)
		}
	}
	for _, n := range c.nodes {
		n.fanin.Store(0)
		n.faninHWM.Store(0)
		n.exited = make(chan struct{})
	}
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			// Runs after every send the node made: a peer that sees the
			// close finds all of them queued.
			defer close(n.exited)
			defer func() { n.liveClock.Store(math.Float64bits(n.clock)) }()
			defer func() {
				if r := recover(); r != nil {
					if ce, ok := r.(*CrashError); ok {
						errs[i] = ce
					} else {
						errs[i] = fmt.Errorf("cluster: node %d panicked: %v", i, r)
					}
				}
			}()
			errs[i] = fn(n)
		}(i, n)
	}
	wg.Wait()
	// Fold the per-run contention accounting into each node's metrics:
	// peak concurrently backed-up in-links (≈ peak open incoming
	// streams) and the worst per-link queue depth.
	for i, n := range c.nodes {
		n.metrics.Gauge(FanInHWMKey).Set(float64(n.faninHWM.Load()))
		n.metrics.Gauge(LinkQueueHWMKey).Set(float64(c.LinkQueueHWM(i)))
		if n.disks > 1 {
			n.metrics.Gauge("disk.parallel.steps").Set(float64(n.ioSteps))
			if n.ioSteps > 0 {
				n.metrics.Gauge("disk.step.width.avg").Set(float64(n.stepBlocks) / float64(n.ioSteps))
			}
			for d, busy := range n.diskBusy {
				n.metrics.Gauge(fmt.Sprintf("disk.%d.busy.sec", d)).Set(busy)
			}
		}
	}
	var nonNil []error
	for i, err := range errs {
		if err != nil {
			nonNil = append(nonNil, fmt.Errorf("node %d: %w", i, err))
		}
	}
	if nonNil != nil {
		return fmt.Errorf("cluster: %w", errors.Join(nonNil...))
	}
	return nil
}

// Node is one simulated machine: processor + private disk + clock.
// A Node's methods must only be called from the goroutine running it
// inside Cluster.Run (except the read-only inspection methods, which are
// safe once Run has returned).
type Node struct {
	id       int
	cluster  *Cluster
	slowdown float64
	cost     vtime.CostModel
	block    int
	disks    int
	access   pdm.AccessMode
	fs       diskio.FS
	clock    float64
	counter  pdm.Counter

	// Per-disk virtual-time queues (D > 1 only; at D=1 the fast paths
	// below bypass them so single-disk numerics are bit-identical to
	// the pre-striping model).  diskDone[d] is the absolute virtual
	// time at which member disk d finishes its last accepted request;
	// the invariant diskDone[d] <= clock holds between charges because
	// the node always waits for the completion it is charged.  A
	// "parallel I/O step" groups consecutive block charges to distinct
	// disks: the step opens at the current clock (stripeIssue), each
	// involved disk serves its block from max(its cursor, the issue
	// time), and the node's clock only advances by the wait for the
	// slowest involved disk.  A step closes when a disk repeats within
	// it, when a seek intervenes, or — in striped access mode — when
	// the round-robin disk order breaks.
	diskDone     []float64
	diskBusy     []float64 // per-disk busy seconds (queue-depth metric)
	stripeUsed   []bool
	stripeOpen   bool
	stripeIssue  float64
	prevDisk     int
	ioSteps      int64 // parallel I/O steps issued
	stepBlocks   int64 // blocks issued through the step model
	diskCounters []pdm.Counter
	diskCtrPtrs  []*pdm.Counter

	// liveClock mirrors clock as atomically published float bits so
	// progress samplers in other goroutines can read a node's virtual
	// time mid-run.  Only the node goroutine writes it: on every disk,
	// network and idle charge (ChargeTime) and when its Run function
	// returns, not on compute charges, so it lags clock by at most the
	// compute since the node's last transfer.  It is a pure observation
	// channel and never feeds back into the simulation, so vtime
	// attribution is unperturbed.
	liveClock atomic.Uint64

	// attr splits the clock into compute/disk/network/idle: every
	// clock advance charges exactly one category, so the categories
	// always sum to the clock (vtime.CheckAttribution).
	attr vtime.Breakdown

	// metrics is the node's registry; the typed handles below cache the
	// hot-path metrics so sends and receives never take the registry
	// lock.
	metrics   *metrics.Registry
	mSentMsgs *metrics.Counter
	mSentKeys *metrics.Counter
	mRecvMsgs *metrics.Counter
	mRecvKeys *metrics.Counter
	// The overlap counters are registered by the first overlapped
	// charge, so synchronous runs report none of them.
	mPrefetch, mPrefetchHits, mPrefetchStalls, mWriteBehind *metrics.Counter

	// Overlap-window state (vtime.OverlapMeter): while windows are
	// open, compute charges accrue credit (capped by the windows'
	// combined in-flight capacity) and asynchronously issued disk blocks
	// spend it — spent disk time hides behind the compute that already
	// advanced the clock and lands in attr.Overlapped instead of
	// attr.Disk.  overlapCaps stacks each open window's capacity in
	// seconds so EndOverlap can retire exactly its own contribution.
	overlapCaps   []float64
	overlapCap    float64
	overlapCredit float64

	// Fan-in accounting: fanin counts in-links that currently hold
	// queued messages (senders increment on a link's 0→1 transition,
	// the receiver decrements on 1→0); faninHWM is its per-Run peak.
	fanin    atomic.Int64
	faninHWM atomic.Int64

	// wake carries one token per in-link 0→1 transition (dropped when a
	// token is already pending), so a Recv blocked on an empty link can
	// wait on it, on its sender's exit and on an Interrupt at once.  A
	// token says only "some in-link became non-empty": the receiver
	// rechecks its link.
	wake chan struct{}
	// exited is closed when the node's goroutine returns from the
	// current Run (made afresh by every Run).
	exited chan struct{}

	// Scheduled fault injection (see Cluster.ScheduleCrash).
	crashArmed bool
	crashClock float64
	crashPoint string
}

// MaxInQueueHWM returns the worst queue high-water mark over the node's
// incoming links so far.
func (n *Node) MaxInQueueHWM() int64 { return n.cluster.LinkQueueHWM(n.id) }

// initDiskQueues allocates the per-disk queue and counter state for a
// multi-disk node (no-op at D=1, which keeps the single-disk fast
// paths allocation-free).
func (n *Node) initDiskQueues() {
	if n.disks <= 1 {
		return
	}
	n.diskDone = make([]float64, n.disks)
	n.diskBusy = make([]float64, n.disks)
	n.stripeUsed = make([]bool, n.disks)
	n.prevDisk = n.disks - 1 // so the first round-robin block lands on disk 0
	n.diskCounters = make([]pdm.Counter, n.disks)
	n.diskCtrPtrs = make([]*pdm.Counter, n.disks)
	for d := range n.diskCounters {
		n.diskCtrPtrs[d] = &n.diskCounters[d]
	}
}

// initMetricHandles pre-registers the hot-path metrics, so Send/Recv
// only touch atomics.
func (n *Node) initMetricHandles() {
	n.mSentMsgs = n.metrics.Counter("net.sent.msgs")
	n.mSentKeys = n.metrics.Counter("net.sent.keys")
	n.mRecvMsgs = n.metrics.Counter("net.recv.msgs")
	n.mRecvKeys = n.metrics.Counter("net.recv.keys")
}

// crashIfDue panics with a CrashError when the node's scheduled
// clock-triggered crash has come due.  Called from every clock-advancing
// method so a node can die mid-phase, exactly like a real process.
func (n *Node) crashIfDue() {
	if n.crashArmed && n.crashClock >= 0 && n.clock >= n.crashClock {
		n.crashArmed = false
		panic(&CrashError{Node: n.id, Clock: n.clock})
	}
}

// CrashPoint is a named fault-injection hook: if a crash was scheduled
// at this point (Cluster.ScheduleCrash with atPoint == name), the node
// dies here.  The sorts place crash points at their phase boundaries so
// tests can kill a node at any commit point.
func (n *Node) CrashPoint(name string) {
	if n.crashArmed && n.crashPoint == name {
		n.crashArmed = false
		panic(&CrashError{Node: n.id, Clock: n.clock, Point: name})
	}
}

// ID returns the node's rank in [0, P).
func (n *Node) ID() int { return n.id }

// P returns the cluster size.
func (n *Node) P() int { return len(n.cluster.nodes) }

// FS returns the node's private disk.
func (n *Node) FS() diskio.FS { return n.fs }

// Cost returns the cost model the node charges by.
func (n *Node) Cost() vtime.CostModel { return n.cost }

// Clock returns the node's virtual time in seconds.
func (n *Node) Clock() float64 { return n.clock }

// AdvanceClock adds dt virtual seconds of unscaled time, attributed to
// idle-wait (its callers are waits: retry backoff delays and the
// replayed clock of a resumed run).
func (n *Node) AdvanceClock(dt float64) {
	n.ChargeTime(vtime.Idle, dt)
}

// ChargeTime implements vtime.TimeMeter: it advances the clock by sec
// unscaled virtual seconds attributed to cat.
func (n *Node) ChargeTime(cat vtime.Category, sec float64) {
	n.clock += sec
	n.liveClock.Store(math.Float64bits(n.clock))
	n.attr.Charge(cat, sec)
	n.crashIfDue()
}

// LiveClock returns the node's virtual time as last published: by every
// disk, network and idle charge, and when the node's Run function
// returns, on a crash as well.  Unlike Clock it is safe to call from any
// goroutine while the cluster is running, which is what the progress
// sampler needs; mid-run it may lag Clock by the compute charged since
// the node's last transfer (about one block's worth), and after Run it
// equals Clock.
func (n *Node) LiveClock() float64 {
	return math.Float64frombits(n.liveClock.Load())
}

// Attribution returns the node's clock split into compute / disk /
// network / idle-wait.  The categories sum to Clock() (within
// vtime.AttributionTolerance of float drift).
func (n *Node) Attribution() vtime.Breakdown { return n.attr }

// Metrics returns the node's metrics registry.
func (n *Node) Metrics() *metrics.Registry { return n.metrics }

// Counter returns the node's PDM I/O counter.
func (n *Node) Counter() *pdm.Counter { return &n.counter }

// IOStats returns a snapshot of the node's I/O counter.
func (n *Node) IOStats() pdm.IOStats { return n.counter.Snapshot() }

// Acct returns the accounting handle (counters, meter and the D-disk
// block placement) to pass to the disk layer and the sorts.
func (n *Node) Acct() diskio.Accounting {
	return diskio.Accounting{Counter: &n.counter, Meter: n, Disks: n.diskCtrPtrs,
		StripeBytes: int64(n.block) * record.KeySize}
}

// ChargeCompute implements vtime.Meter.  Inside an overlap window the
// compute time also accrues overlap credit: the node's disks can
// transfer while this computation runs, so disk blocks later charged
// through ChargeOverlappedIOBlocks may hide behind it.
func (n *Node) ChargeCompute(ops int64) {
	sec := float64(ops) * n.cost.ComputeSec * n.slowdown
	if len(n.overlapCaps) > 0 {
		n.overlapCredit += sec
		if n.overlapCredit > n.overlapCap {
			n.overlapCredit = n.overlapCap
		}
	}
	// ChargeTime without the live-clock publish, which Run's exit makes.
	n.clock += sec
	n.attr.Charge(vtime.Compute, sec)
	n.crashIfDue()
}

// blockSec is the virtual transfer time of one block on a single member
// drive of this node.  D no longer discounts this uniformly: at
// D > 1 the per-disk queues decide how much of each block's time
// overlaps with the other disks' (chargeDiskBlock).
func (n *Node) blockSec() float64 {
	return float64(n.block) * n.cost.IOBlockSecPerKey * n.slowdown
}

// BeginOverlap implements vtime.OverlapMeter: it opens an overlap window
// whose device keeps up to depthBlocks transfers in flight (<= 0 means 2,
// double-buffering).  Under diskio.Overlap every Reader and Writer holds
// one window for its lifetime.
func (n *Node) BeginOverlap(depthBlocks int) {
	if depthBlocks <= 0 {
		depthBlocks = 2
	}
	// The window's credit is capped per disk: each in-flight slot hides
	// at most one block served at the array's parallel rate, so depth
	// slots cap at depth * blockSec/D regardless of which member disks
	// the stream lands on.
	cap := float64(depthBlocks) * n.blockSec() / float64(n.disks)
	n.overlapCaps = append(n.overlapCaps, cap)
	n.overlapCap += cap
}

// EndOverlap implements vtime.OverlapMeter, closing the innermost open
// window.  Credit is clamped to the remaining windows' capacity and dies
// entirely with the last window: compute can only hide transfers that
// are actually in flight.
func (n *Node) EndOverlap() {
	if len(n.overlapCaps) == 0 {
		return
	}
	last := len(n.overlapCaps) - 1
	n.overlapCap -= n.overlapCaps[last]
	n.overlapCaps = n.overlapCaps[:last]
	if n.overlapCredit > n.overlapCap {
		n.overlapCredit = n.overlapCap
	}
}

// ChargeOverlappedIOBlocks implements vtime.OverlapMeter: the blocks
// were transferred by the drive while the CPU worked, so their time is
// hidden up to the accrued credit — max(0, disk − overlappable compute)
// per window — and only the exposed remainder advances the clock as
// Disk.  The hidden share is recorded in the Overlapped attribution
// column, never silently dropped.
//
// The charge also feeds the node's prefetch metrics, which are thereby
// model quantities: a read charge wholly hidden by credit is a prefetch
// hit (the block was in memory when the consumer asked), one that
// exposed any time a stall (the consumer waited for the drive), and
// hits + stalls = disk.prefetch.blocks.  The disk layer charges one
// block at a time.
func (n *Node) ChargeOverlappedIOBlocks(blocks int64, write bool) {
	// Asynchronously issued blocks stream at the array's parallel rate:
	// the prefetch/write-behind queue keeps all D member disks fed, so
	// a block's exposed time is the single-disk time over D.
	sec := float64(blocks) * n.blockSec() / float64(n.disks)
	hidden := sec
	if hidden > n.overlapCredit {
		hidden = n.overlapCredit
	}
	n.overlapCredit -= hidden
	n.attr.Overlapped += hidden
	if n.mPrefetch == nil {
		n.mPrefetch = n.metrics.Counter("disk.prefetch.blocks")
		n.mPrefetchHits = n.metrics.Counter("disk.prefetch.hits")
		n.mPrefetchStalls = n.metrics.Counter("disk.prefetch.stalls")
		n.mWriteBehind = n.metrics.Counter("disk.writebehind.blocks")
	}
	switch {
	case write:
		n.mWriteBehind.Add(blocks)
	case hidden == sec:
		n.mPrefetch.Add(blocks)
		n.mPrefetchHits.Add(blocks)
	default:
		n.mPrefetch.Add(blocks)
		n.mPrefetchStalls.Add(blocks)
	}
	n.ChargeTime(vtime.Disk, max(sec-hidden, 0))
}

// Disks returns the node's PDM D parameter.
func (n *Node) Disks() int { return n.disks }

// DiskIO returns one I/O snapshot per member disk (nil at D=1, where
// the node counter is the only drive).  The per-disk counts always sum
// exactly to the node counter: the disk layer bumps both on every
// transfer.
func (n *Node) DiskIO() []pdm.IOStats {
	if n.disks <= 1 {
		return nil
	}
	out := make([]pdm.IOStats, n.disks)
	for d := range n.diskCounters {
		out[d] = n.diskCounters[d].Snapshot()
	}
	return out
}

// SetIOPhase selects the PDM phase subsequent block transfers are
// attributed to, on the node counter and every per-disk counter (so
// per-phase per-disk counts keep summing to the per-phase node counts).
func (n *Node) SetIOPhase(p int) {
	n.counter.SetPhase(p)
	for d := range n.diskCounters {
		n.diskCounters[d].SetPhase(p)
	}
}

// closeStep ends the open parallel I/O step: the next block charge
// opens a fresh step at the then-current clock.
func (n *Node) closeStep() {
	if !n.stripeOpen {
		return
	}
	for i := range n.stripeUsed {
		n.stripeUsed[i] = false
	}
	n.stripeOpen = false
}

// chargeDiskBlock runs one block transfer on member disk d through the
// per-disk queues (D > 1 only).  Consecutive charges to distinct disks
// share a parallel I/O step: the step opens at the clock of its first
// block, every involved disk serves from max(its cursor, the step's
// issue time), and the node waits only for each block's completion —
// so within a step the later disks' transfers hide behind the first
// wait, and a full-width step of D blocks costs one blockSec.  Reusing
// a disk inside a step (and, under striped access, breaking round-robin
// order) closes it; the next charge then starts a new step at the
// current clock, which is exactly the old synchronous behaviour when
// every block lands on the same disk.
func (n *Node) chargeDiskBlock(d int) {
	if d < 0 || d >= n.disks {
		d = 0
	}
	if n.stripeOpen && (n.stripeUsed[d] ||
		(n.access == pdm.Striped && d != (n.prevDisk+1)%n.disks)) {
		n.closeStep()
	}
	if !n.stripeOpen {
		n.stripeOpen = true
		n.stripeIssue = n.clock
		n.ioSteps++
	}
	start := n.diskDone[d]
	if start < n.stripeIssue {
		start = n.stripeIssue
	}
	done := start + n.blockSec()
	n.diskDone[d] = done
	n.diskBusy[d] += n.blockSec()
	n.stripeUsed[d] = true
	n.prevDisk = d
	n.stepBlocks++
	n.ChargeTime(vtime.Disk, max(done-n.clock, 0))
}

// ChargeDiskIOBlocks implements vtime.DiskMeter: the disk layer names
// the member disk that serves each block (diskio.Accounting places it).
func (n *Node) ChargeDiskIOBlocks(disk int, blocks int64) {
	if n.disks == 1 {
		n.ChargeTime(vtime.Disk, float64(blocks)*n.blockSec())
		return
	}
	for i := int64(0); i < blocks; i++ {
		n.chargeDiskBlock(disk)
	}
}

// ChargeDiskSeek implements vtime.DiskMeter.  A seek closes the open
// parallel step — a repositioning is precisely a break in the streaming
// pattern the step models — and occupies its member disk for the full
// seek time.
func (n *Node) ChargeDiskSeek(disk int, seeks int64) {
	sec := float64(seeks) * n.cost.SeekSec * n.slowdown
	if n.disks == 1 {
		n.ChargeTime(vtime.Disk, sec)
		return
	}
	d := disk
	if d < 0 || d >= n.disks {
		d = 0
	}
	n.closeStep()
	start := n.diskDone[d]
	if start < n.clock {
		start = n.clock
	}
	done := start + sec
	n.diskDone[d] = done
	n.diskBusy[d] += sec
	n.ChargeTime(vtime.Disk, max(done-n.clock, 0))
}

// ChargeIOBlocks implements vtime.Meter for transfers with no placement
// information (bulk charges made directly on the node).  At D > 1 they
// are modeled as perfectly striped: blocks round-robin over the member
// disks continuing from the last disk touched, so a bulk charge of n
// blocks coalesces into ceil(n/D) parallel steps.
func (n *Node) ChargeIOBlocks(blocks int64) {
	if n.disks == 1 {
		n.ChargeTime(vtime.Disk, float64(blocks)*n.blockSec())
		return
	}
	for i := int64(0); i < blocks; i++ {
		n.chargeDiskBlock((n.prevDisk + 1) % n.disks)
	}
}

// ChargeSeek implements vtime.Meter (no placement: disk 0).
func (n *Node) ChargeSeek(seeks int64) {
	n.ChargeDiskSeek(0, seeks)
}

// ObserveMerge implements polyphase's merge-kernel observer: the loser
// tree reports its tree comparisons and block-copy fast-path hits here,
// and the node folds them into its metrics registry.
func (n *Node) ObserveMerge(keys, chunks, fastChunks, comparisons int64) {
	n.metrics.Counter("merge.keys").Add(keys)
	n.metrics.Counter("merge.chunks").Add(chunks)
	n.metrics.Counter("merge.fastpath.chunks").Add(fastChunks)
	n.metrics.Counter("merge.comparisons").Add(comparisons)
}

// AcquireBuf returns a payload buffer of the given length from the
// process-wide pool (allocating when the pool is empty).  Fill it and
// hand it to SendOwned; the receiver returns it with ReleaseBuf.
func (n *Node) AcquireBuf(size int) []record.Key {
	c := bits.Len(uint(max(size, 1) - 1)) // the capacity class, 1<<c ≥ size
	if p := payloads[c].Get(); p != nil {
		return unsafe.Slice((*record.Key)(p.(unsafe.Pointer)), 1<<c)[:size]
	}
	return make([]record.Key, size, 1<<c)
}

// ReleaseBuf returns a payload buffer to the pool; one whose capacity is
// not a power of two is left to the garbage collector.  Release a buffer
// at most once, and do not touch it afterwards.
func (n *Node) ReleaseBuf(buf []record.Key) {
	if c := bits.Len(uint(cap(buf) - 1)); cap(buf) > 0 && cap(buf) == 1<<c {
		payloads[c].Put(unsafe.Pointer(unsafe.SliceData(buf)))
	}
}

// Send transfers keys to node `to` with the given tag.  The payload is
// copied, so the sender may reuse its buffer.  The sender's clock
// advances by the transmit occupancy (size/bandwidth); the message
// arrives at sender-completion + latency.  Sending to self is a cheap
// local enqueue with no network cost.
func (n *Node) Send(to, tag int, keys []record.Key) error {
	return n.send(to, tag, keys, true)
}

// SendOwned transfers keys without copying: ownership of the buffer
// (typically from AcquireBuf) passes to the receiver, which releases it
// via ReleaseBuf once consumed.  Self-sends are true zero-copy local
// enqueues.  Virtual-time cost is identical to Send — the copy it
// eliminates is real host work, not simulated work.
func (n *Node) SendOwned(to, tag int, keys []record.Key) error {
	return n.send(to, tag, keys, false)
}

func (n *Node) send(to, tag int, keys []record.Key, copyPayload bool) error {
	if to < 0 || to >= n.P() {
		return fmt.Errorf("cluster: node %d sending to invalid rank %d", n.id, to)
	}
	payload := keys
	if copyPayload {
		payload = append([]record.Key(nil), keys...)
	}
	var arrival float64
	remote := to != n.id
	if !remote {
		arrival = n.clock
	} else {
		// The sender pays the per-message software overhead (one
		// latency's worth of protocol processing, as in LogP's "o")
		// plus the transmit occupancy; the wire adds another latency
		// before arrival.  This is what makes tiny messages expensive
		// and reproduces the paper's 8-int vs 8K-int packet finding.
		n.ChargeTime(vtime.Network, n.cluster.net.TransferSec(int64(len(keys))*record.KeySize))
		arrival = n.clock + n.cluster.net.LatencySec
	}
	rn := n.cluster.nodes[to]
	if n.cluster.link(n.id, to).push(message{tag: tag, keys: payload, arrival: arrival, remote: remote}, rn) {
		select {
		case rn.wake <- struct{}{}:
		default: // a token is already pending
		}
	}
	n.mSentMsgs.Inc()
	n.mSentKeys.Add(int64(len(keys)))
	if tl := n.cluster.trace; tl != nil {
		tl.Add(trace.Event{Node: n.id, Clock: n.clock, Kind: trace.MessageSent,
			Label: fmt.Sprintf("tag%d", tag), Detail: fmt.Sprintf("to:%d keys:%d", to, len(keys))})
	}
	return nil
}

// Recv receives the next message from node `from`, asserting its tag.
// It blocks until the message is available and advances the receiver's
// clock to at least the message's arrival time.  Receives are
// deterministic: callers name the peer, and per-link delivery is FIFO.
// The returned slice is the message payload itself (never a copy); if
// the sender used SendOwned with a pooled buffer, pass it to ReleaseBuf
// when done to recycle it.
func (n *Node) Recv(from, wantTag int) ([]record.Key, error) {
	if from < 0 || from >= n.P() {
		return nil, fmt.Errorf("cluster: node %d receiving from invalid rank %d", n.id, from)
	}
	l := n.cluster.link(from, n.id)
	msg, ok := l.pop(n)
	for !ok {
		// Wait for an in-link to fill, for the sender to return (it
		// will never send again) or for an Interrupt; a message already
		// queued is delivered even then.
		aborted := false
		select {
		case <-n.wake:
		case <-n.cluster.nodes[from].exited:
			aborted = true
		case <-n.cluster.abort:
			aborted = true
		}
		if msg, ok = l.pop(n); !ok && aborted {
			return nil, fmt.Errorf("cluster: node %d receive from %d aborted (peer exited or run interrupted)", n.id, from)
		}
	}
	if msg.tag != wantTag {
		return nil, fmt.Errorf("cluster: node %d expected tag %d from %d, got %d",
			n.id, wantTag, from, msg.tag)
	}
	if msg.arrival > n.clock {
		// The gap until the message arrives is time spent blocked on
		// the peer: idle-wait, not network occupancy.
		n.ChargeTime(vtime.Idle, msg.arrival-n.clock)
	}
	if msg.remote {
		// Receive-side protocol processing.
		n.ChargeTime(vtime.Network, n.cluster.net.LatencySec)
	}
	n.mRecvMsgs.Inc()
	n.mRecvKeys.Add(int64(len(msg.keys)))
	if tl := n.cluster.trace; tl != nil {
		tl.Add(trace.Event{Node: n.id, Clock: n.clock, Kind: trace.MessageReceived,
			Label: fmt.Sprintf("tag%d", wantTag), Detail: fmt.Sprintf("from:%d keys:%d", from, len(msg.keys))})
	}
	return msg.keys, nil
}

// TracePhase records a phase-begin event (no-op without a trace log)
// and returns a function recording the matching phase-end.
func (n *Node) TracePhase(label string) func() {
	tl := n.cluster.trace
	if tl == nil {
		return func() {}
	}
	tl.Add(trace.Event{Node: n.id, Clock: n.clock, Kind: trace.PhaseBegin, Label: label})
	return func() {
		tl.Add(trace.Event{Node: n.id, Clock: n.clock, Kind: trace.PhaseEnd, Label: label})
	}
}

// TraceEvent records an event of an arbitrary kind at the node's current
// clock (no-op without a trace log).  The checkpoint subsystem uses it
// for commit and recovery events.
func (n *Node) TraceEvent(k trace.Kind, label, detail string) {
	if tl := n.cluster.trace; tl != nil {
		tl.Add(trace.Event{Node: n.id, Clock: n.clock, Kind: k, Label: label, Detail: detail})
	}
}
