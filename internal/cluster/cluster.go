package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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
	// Contention, when non-nil, is sampled on every disk and network
	// charge and multiplies the virtual time by the returned factor
	// (values below 1, NaN, or Inf are treated as 1).  The hetsortd
	// service shares one simulated machine between tenant jobs this
	// way: with k jobs running, each sees its disk transfers, seeks and
	// link occupancy stretched by k — fair time-slicing of the shared
	// drives and links.  Message latency (the wire's propagation delay)
	// is not stretched, and data is never touched: contention is purely
	// a virtual-time effect, so outputs stay byte-identical at any
	// multiprogramming level.  nil means a dedicated machine.
	Contention func() float64
	// LinkBuffer is the per-link message queue capacity (default 4096
	// messages) for clusters whose users never declare a bound.  The
	// sorts' send-all-then-receive-all exchange can queue a whole
	// segment per link, so a sort declares its own bound —
	// ceil(l_i/MessageKeys) messages for the largest portion l_i,
	// plus the end-of-stream sentinel — via EnsureLinkCapacity before
	// Run (extsort and dewitt do; see LinkBound).  A declared bound
	// replaces this default: at scale the default is the dominant
	// memory cost (4096 slots on each of p² links), while the
	// in-flight *data* volume is bounded by the dataset either way.
	LinkBuffer int
	// Trace, when non-nil, receives message and phase events with
	// virtual timestamps.
	Trace *trace.Log
}

// linkState is one directed link: a lazily created message channel
// plus queue-depth accounting.  Channels materialize on first use, so
// an idle link costs one small struct rather than a buffered channel —
// a flat all-to-all still touches all p² links, but tree and grid
// topologies touch O(p·r·log_r p) and the rest stay unallocated.
type linkState struct {
	ch     atomic.Pointer[chan message]
	queued atomic.Int64 // messages in flight (incremented by the sender before enqueue)
	hwm    atomic.Int64 // high-water mark of queued since the last Run started
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

	links    []linkState            // row-major [from*p+to], channels created lazily
	linkMu   sync.Mutex             // guards channel creation and capacity growth
	linkDef  int                    // Config.LinkBuffer: capacity for links with no hint
	linkCap  int                    // uniform minimum set by EnsureLinkCapacity
	linkCapF func(from, to int) int // per-link hint set by EnsureLinkCapacityFunc

	// payloads recycles message payload buffers across the whole
	// cluster (senders acquire, receivers release), eliminating the
	// per-message allocation of the redistribution exchange.
	payloads sync.Pool

	abortMu   sync.Mutex    // guards abort/abortOnce against Interrupt
	abort     chan struct{} // closed when any node fails during Run
	abortOnce *sync.Once
}

// Interrupt aborts a Run in progress from outside the node goroutines:
// every node blocked in a receive, collective or barrier returns an
// error, exactly as if a peer had failed.  Interruption is best-effort
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

// LinkBound returns the per-link queue capacity a send-all-then-
// receive-all exchange needs so sends never block: one message per
// MessageKeys-sized packet of the largest per-node portion (maxKeys),
// the zero-length end-of-stream sentinel, and a small margin for
// control traffic and collectives.  Sorts pass the result to
// EnsureLinkCapacity before Run.
func LinkBound(maxKeys int64, messageKeys int) int {
	if messageKeys <= 0 {
		messageKeys = 1
	}
	b := int((maxKeys+int64(messageKeys)-1)/int64(messageKeys)) + 1 + 16
	// A low floor matters at scale: the bound applies per link, and a
	// flat exchange touches all p² of them, so every slot of floor here
	// is p²·sizeof(message) bytes of resident buffer at p=1024.
	if b < 16 {
		b = 16
	}
	return b
}

// EnsureLinkCapacity declares msgs as the uniform queue capacity for
// every link, replacing the Config.LinkBuffer default (calls keep the
// largest bound declared so far; a small floor leaves room for control
// traffic).  Channels created later are sized to the bound, and
// already-created channels are grown in place (never shrunk), with
// queued messages preserved.  Must not be called while Run is
// executing.
func (c *Cluster) EnsureLinkCapacity(msgs int) {
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	if msgs > c.linkCap {
		c.linkCap = msgs
	}
	c.growCreatedLocked()
}

// EnsureLinkCapacityFunc installs a per-link capacity hint: the
// channel for from→to is created with f(from, to) messages of
// capacity (replacing the Config.LinkBuffer default, subject to the
// EnsureLinkCapacity uniform minimum and a small control-traffic
// floor).  The hint is evaluated lazily, so only links that actually
// carry traffic pay for their bound — this is what keeps a tree
// topology's resident buffer memory O(p·r·log_r p) instead of the
// flat path's O(p²).  Already-created channels are grown to their
// hint immediately (never shrunk).  Pass nil to restore the default.
// Must not be called while Run is executing.
func (c *Cluster) EnsureLinkCapacityFunc(f func(from, to int) int) {
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	c.linkCapF = f
	c.growCreatedLocked()
}

// growCreatedLocked grows every already-created channel to the current
// capacity bound for its link.  Caller holds linkMu.
func (c *Cluster) growCreatedLocked() {
	p := len(c.nodes)
	for i := range c.links {
		ls := &c.links[i]
		chp := ls.ch.Load()
		if chp == nil {
			continue
		}
		want := c.linkCapLocked(i/p, i%p)
		if cap(*chp) >= want {
			continue
		}
		grown := make(chan message, want)
		for len(*chp) > 0 {
			grown <- <-*chp
		}
		ls.ch.Store(&grown)
	}
}

// linkCapLocked returns the creation capacity for link from→to.  With
// a hint function installed the hint replaces the Config.LinkBuffer
// default (that is the point: the default is sized for arbitrary flat
// traffic, far above what a structured topology needs per link), while
// the uniform minimum from EnsureLinkCapacity still applies, and a
// small floor keeps room for stray control traffic.  Caller holds
// linkMu.
func (c *Cluster) linkCapLocked(from, to int) int {
	if c.linkCapF != nil {
		capMsgs := c.linkCapF(from, to)
		if c.linkCap > capMsgs {
			capMsgs = c.linkCap
		}
		if capMsgs < 16 {
			capMsgs = 16
		}
		return capMsgs
	}
	// A declared bound replaces the Config.LinkBuffer default rather
	// than raising it: the default is sized for arbitrary traffic from
	// callers that never declare anything, and letting it win would
	// keep every link at 4096 slots (~190 KiB of buffer) when the
	// sort's own bound is a couple dozen.  A flat exchange at p=1024
	// touches all 2^20 links, so that is the difference between ~1 GiB
	// and ~200 GiB of resident channel buffers.
	if c.linkCap > 0 {
		capMsgs := c.linkCap
		if capMsgs < 16 {
			capMsgs = 16
		}
		return capMsgs
	}
	return c.linkDef
}

// linkAt returns the link state for from→to.
func (c *Cluster) linkAt(from, to int) *linkState {
	return &c.links[from*len(c.nodes)+to]
}

// link returns the channel for from→to, creating it on first use at
// the capacity bound in force.  Safe to call from any node goroutine.
func (c *Cluster) link(from, to int) chan message {
	ls := c.linkAt(from, to)
	if chp := ls.ch.Load(); chp != nil {
		return *chp
	}
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	if chp := ls.ch.Load(); chp != nil {
		return *chp
	}
	ch := make(chan message, c.linkCapLocked(from, to))
	ls.ch.Store(&ch)
	return ch
}

// LinksCreated returns the number of links whose channel has been
// materialized — the measure of resident link-buffer state.
func (c *Cluster) LinksCreated() int {
	created := 0
	for i := range c.links {
		if c.links[i].ch.Load() != nil {
			created++
		}
	}
	return created
}

// FanInHWM returns node id's peak count of distinct in-links with
// queued messages during the last Run — the peak number of concurrently
// open incoming streams the node had to buffer.
func (c *Cluster) FanInHWM(id int) int64 { return c.nodes[id].faninHWM.Load() }

// LinkQueueHWM returns the worst per-link queue high-water mark over
// node id's incoming links during the last Run.
func (c *Cluster) LinkQueueHWM(id int) int64 {
	var m int64
	for from := 0; from < len(c.nodes); from++ {
		if h := c.linkAt(from, id).hwm.Load(); h > m {
			m = h
		}
	}
	return m
}

// CrashError is the failure a scheduled crash injects: the node stops
// mid-run exactly as if its process had died, leaving peers to abort.
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
	if cfg.LinkBuffer <= 0 {
		cfg.LinkBuffer = 1 << 12
	}
	if cfg.DisksPerNode <= 0 {
		cfg.DisksPerNode = 1
	}
	c := &Cluster{net: cfg.Net, trace: cfg.Trace, linkDef: cfg.LinkBuffer}
	c.links = make([]linkState, p*p)
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
			contend:  cfg.Contention,
			metrics:  metrics.NewRegistry(),
		}
		n.initDiskQueues()
		n.initMetricHandles(p)
		c.nodes[i] = n
	}
	return c, nil
}

// P returns the number of nodes.
func (c *Cluster) P() int { return len(c.nodes) }

// Node returns node id (for inspection after a run).
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// Net returns the interconnect model.
func (c *Cluster) Net() NetModel { return c.net }

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
// readable afterwards.
func (c *Cluster) Run(fn func(*Node) error) error {
	errs := make([]error, len(c.nodes))
	c.abortMu.Lock()
	c.abort = make(chan struct{})
	c.abortOnce = new(sync.Once)
	c.abortMu.Unlock()
	// Drain any messages a previous aborted run left in the links, so
	// the cluster is reusable after a failure, and zero the per-run
	// queue accounting.
	for i := range c.links {
		ls := &c.links[i]
		if chp := ls.ch.Load(); chp != nil {
			for len(*chp) > 0 {
				<-*chp
			}
		}
		ls.queued.Store(0)
		ls.hwm.Store(0)
	}
	for _, n := range c.nodes {
		n.fanin.Store(0)
		n.faninHWM.Store(0)
	}
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if ce, ok := r.(*CrashError); ok {
						errs[i] = ce
					} else {
						errs[i] = fmt.Errorf("cluster: node %d panicked: %v", i, r)
					}
				}
				if errs[i] != nil {
					// Unblock peers waiting on this node forever.
					c.abortOnce.Do(func() { close(c.abort) })
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
		n.metrics.Gauge("net.fanin.hwm").Set(float64(n.faninHWM.Load()))
		n.metrics.Gauge("net.link.queue.hwm").Set(float64(c.LinkQueueHWM(i)))
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
	contend  func() float64
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
	// time mid-run.  Only the node goroutine writes it (in ChargeTime);
	// it is a pure observation channel and never feeds back into the
	// simulation, so vtime attribution is unperturbed.
	liveClock atomic.Uint64

	// attr splits the clock into compute/disk/network/idle: every
	// clock advance charges exactly one category, so the categories
	// always sum to the clock (vtime.CheckAttribution).
	attr vtime.Breakdown

	// metrics is the node's registry; the typed handles below cache the
	// hot-path metrics so sends and receives never take the registry
	// lock.
	metrics    *metrics.Registry
	mSentMsgs  *metrics.Counter
	mSentKeys  *metrics.Counter
	mRecvMsgs  *metrics.Counter
	mRecvKeys  *metrics.Counter
	mSentTo    []*metrics.Counter // keys sent per outgoing link
	mQueueHist *metrics.Histogram // queue depth sampled after each send
	mQueueLast *metrics.Gauge
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

	// Scheduled fault injection (see Cluster.ScheduleCrash).
	crashArmed bool
	crashClock float64
	crashPoint string
}

// FanInHWM returns the node's peak count of in-links with queued
// messages so far — readable mid-run by the node's own goroutine for
// per-round snapshots, or after Run for the whole-run peak.
func (n *Node) FanInHWM() int64 { return n.faninHWM.Load() }

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

// initMetricHandles pre-registers the hot-path metrics for a p-node
// cluster, so Send/Recv only touch atomics.
func (n *Node) initMetricHandles(p int) {
	n.mSentMsgs = n.metrics.Counter("net.sent.msgs")
	n.mSentKeys = n.metrics.Counter("net.sent.keys")
	n.mRecvMsgs = n.metrics.Counter("net.recv.msgs")
	n.mRecvKeys = n.metrics.Counter("net.recv.keys")
	// Per-peer traffic counters are p entries per node — p² strings and
	// atomics cluster-wide — so they stay off above the sizes where
	// anyone reads them one by one.
	if p <= 128 {
		n.mSentTo = make([]*metrics.Counter, p)
		for j := 0; j < p; j++ {
			n.mSentTo[j] = n.metrics.Counter(fmt.Sprintf("net.sent.keys.to.%d", j))
		}
	}
	n.mQueueHist = n.metrics.Histogram("net.queue.depth")
	n.mQueueLast = n.metrics.Gauge("net.queue.depth.last")
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

// Slowdown returns the node's load factor (1 = fastest class).
func (n *Node) Slowdown() float64 { return n.slowdown }

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

// LiveClock returns the node's virtual time as last published by
// ChargeTime.  Unlike Clock it is safe to call from any goroutine while
// the cluster is running, which is what the progress sampler needs; it
// may lag Clock by at most the charge currently being applied.
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
	n.ChargeTime(vtime.Compute, sec)
}

// contention samples the cluster's tenancy factor (1 when dedicated or
// when the hook returns a degenerate value).
func (n *Node) contention() float64 {
	if n.contend == nil {
		return 1
	}
	f := n.contend()
	if !(f >= 1) || math.IsInf(f, 1) { // NaN compares false: treated as 1
		return 1
	}
	return f
}

// blockSec is the virtual transfer time of one block on a single member
// drive of this node, stretched by the tenancy contention factor when
// the machine is shared.  D no longer discounts this uniformly: at
// D > 1 the per-disk queues decide how much of each block's time
// overlaps with the other disks' (chargeDiskBlock).
func (n *Node) blockSec() float64 {
	return float64(n.block) * n.cost.IOBlockSecPerKey * n.slowdown * n.contention()
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
	if exposed := sec - hidden; exposed > 0 {
		n.ChargeTime(vtime.Disk, exposed)
	} else {
		n.crashIfDue()
	}
}

// Disks returns the node's PDM D parameter.
func (n *Node) Disks() int { return n.disks }

// DiskAccess returns the node's disk access discipline.
func (n *Node) DiskAccess() pdm.AccessMode { return n.access }

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

// DiskBusySec returns each member disk's busy seconds through the
// queue model (nil at D=1).
func (n *Node) DiskBusySec() []float64 {
	if n.disks <= 1 {
		return nil
	}
	out := make([]float64, n.disks)
	copy(out, n.diskBusy)
	return out
}

// IOSteps returns the number of parallel I/O steps issued and the
// blocks they carried; blocks/steps is the achieved step width in
// [1, D] — the queue-depth measure of how well the access pattern kept
// the member disks busy.  Zero at D=1.
func (n *Node) IOSteps() (steps, blocks int64) { return n.ioSteps, n.stepBlocks }

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
	if wait := done - n.clock; wait > 0 {
		n.ChargeTime(vtime.Disk, wait)
	} else {
		n.crashIfDue()
	}
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
	sec := float64(seeks) * n.cost.SeekSec * n.slowdown * n.contention()
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
	if wait := done - n.clock; wait > 0 {
		n.ChargeTime(vtime.Disk, wait)
	} else {
		n.crashIfDue()
	}
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
// cluster-wide pool (allocating when the pool is empty).  Fill it and
// hand it to SendOwned; the receiver returns it with ReleaseBuf.
func (n *Node) AcquireBuf(size int) []record.Key {
	if v := n.cluster.payloads.Get(); v != nil {
		if b := v.([]record.Key); cap(b) >= size {
			return b[:size]
		}
	}
	return make([]record.Key, size)
}

// ReleaseBuf returns a payload buffer to the pool.  Release a buffer at
// most once, and do not touch it afterwards.
func (n *Node) ReleaseBuf(buf []record.Key) {
	if cap(buf) == 0 {
		return
	}
	n.cluster.payloads.Put(buf[:0]) //nolint:staticcheck // slice header alloc is fine
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
		// Under tenancy contention the shared link's effective
		// bandwidth (and per-message software processing) divides among
		// the running jobs, so occupancy stretches; the wire's
		// propagation delay does not.
		bytes := int64(len(keys)) * record.KeySize
		occupancy := n.cluster.net.LatencySec
		if n.cluster.net.BytesPerSec > 0 {
			occupancy += float64(bytes) / n.cluster.net.BytesPerSec
		}
		n.ChargeTime(vtime.Network, occupancy*n.contention())
		arrival = n.clock + n.cluster.net.LatencySec
	}
	ch := n.cluster.link(n.id, to)
	ls := n.cluster.linkAt(n.id, to)
	rn := n.cluster.nodes[to]
	// Count the message before it enters the channel so the receiver's
	// view of queued never undershoots; a failed enqueue backs the count
	// out.  Only this node sends on this link, so a 0→1 transition here
	// pairs with exactly one 1→0 transition at the receiver (or with the
	// back-out below).
	q := ls.queued.Add(1)
	if q == 1 {
		casMax(&rn.faninHWM, rn.fanin.Add(1))
	}
	select {
	case ch <- message{tag: tag, keys: payload, arrival: arrival, remote: remote}:
		casMax(&ls.hwm, q)
		n.mSentMsgs.Inc()
		n.mSentKeys.Add(int64(len(keys)))
		if n.mSentTo != nil {
			n.mSentTo[to].Add(int64(len(keys)))
		}
		depth := float64(len(ch))
		n.mQueueHist.Observe(depth)
		n.mQueueLast.Set(depth)
		if tl := n.cluster.trace; tl != nil {
			tl.Add(trace.Event{Node: n.id, Clock: n.clock, Kind: trace.MessageSent,
				Label: fmt.Sprintf("tag%d", tag), Detail: fmt.Sprintf("to:%d keys:%d", to, len(keys))})
		}
		return nil
	default:
		if ls.queued.Add(-1) == 0 && q == 1 {
			rn.fanin.Add(-1)
		}
		return fmt.Errorf("cluster: link %d->%d full (deadlock-prone receive order?)", n.id, to)
	}
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
	ch := n.cluster.link(from, n.id)
	var msg message
	select {
	case msg = <-ch:
	default:
		// Slow path: block on the message or on a cluster abort (a
		// peer failed and will never send).
		select {
		case msg = <-ch:
		case <-n.cluster.abort:
			return nil, fmt.Errorf("cluster: node %d receive from %d aborted (peer failed)", n.id, from)
		}
	}
	if n.cluster.linkAt(from, n.id).queued.Add(-1) == 0 {
		n.fanin.Add(-1)
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
		// Receive-side protocol processing (shared with co-tenants).
		n.ChargeTime(vtime.Network, n.cluster.net.LatencySec*n.contention())
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

// TraceMark records a free-form annotation (no-op without a trace log).
func (n *Node) TraceMark(label, detail string) {
	n.TraceEvent(trace.Mark, label, detail)
}

// TraceEvent records an event of an arbitrary kind at the node's current
// clock (no-op without a trace log).  The checkpoint subsystem uses it
// for commit and recovery events.
func (n *Node) TraceEvent(k trace.Kind, label, detail string) {
	if tl := n.cluster.trace; tl != nil {
		tl.Add(trace.Event{Node: n.id, Clock: n.clock, Kind: k, Label: label, Detail: detail})
	}
}
