// Package dram models a DDR4 main-memory subsystem at bank/row granularity:
// per-bank row-buffer state, an FR-FCFS scheduler with a row-hit streak cap
// and bank fairness, a shared per-channel data bus, rank-level refresh, and a
// DRAMPower-style energy model. It stands in for Ramulator + DRAMPower in the
// paper's methodology (Table 3: DDR4-3200, 1 channel, 8 ranks, FR-FCFS with
// bank fairness and row buffer hit cap, tCL = tRCD = tRP = 13.75ns).
//
// The memory controller addresses DRAM with scalar machine-physical
// addresses; Config.Decode applies the same static mapping a conventional
// system uses to split a physical address into channel/rank/bank/row/column.
package dram

import (
	"fmt"
	"math/bits"

	"dylect/internal/engine"
	"dylect/internal/stats"
)

// Class labels the purpose of a DRAM request so the harness can split
// memory traffic the way Figure 23 does.
type Class int

// Traffic classes.
const (
	ClassDemand    Class = iota // LLC miss / writeback data
	ClassCTE                    // CTE table block fetches
	ClassMigration              // page expansion / promotion / demotion movement
	ClassWalk                   // page table walker accesses
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassDemand:
		return "demand"
	case ClassCTE:
		return "cte"
	case ClassMigration:
		return "migration"
	case ClassWalk:
		return "walk"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Request is one 64-byte DRAM access.
type Request struct {
	// Addr is the machine-physical byte address; only the block (64B) it
	// falls in matters.
	Addr uint64
	// Write selects a write burst instead of a read burst.
	Write bool
	// Class labels the traffic for accounting.
	Class Class
	// Background requests (asynchronous compression, migrations) lose
	// scheduling ties against foreground requests.
	Background bool
	// Done, if non-nil, runs when the data burst completes.
	Done func(now engine.Time)
}

type location struct {
	channel int
	rank    int
	bank    int // global bank index within channel (rank*banksPerRank+bank)
	row     uint64
}

// Config describes the DRAM organization and timing.
type Config struct {
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	RowsPerBank     uint64
	RowBytes        uint64 // row buffer size per bank

	TCK    engine.Time // DRAM clock period
	TCL    engine.Time // CAS latency
	TRCD   engine.Time // RAS-to-CAS
	TRP    engine.Time // precharge
	TBurst engine.Time // 64B data burst occupancy on the bus
	TRFC   engine.Time // refresh cycle time
	TREFI  engine.Time // refresh interval per rank

	RowHitCap int // max consecutive row hits served before yielding (FR-FCFS cap)

	// QueueWindow bounds how many queued requests the scheduler considers
	// per decision (real FR-FCFS schedulers reorder within a finite
	// window; this also bounds scheduling cost when the queue is deep).
	QueueWindow int

	// Energy model (DRAMPower substitute).
	ActEnergyPJ        float64 // per activate (incl. precharge)
	BurstEnergyPJ      float64 // per 64B read or write burst
	RefreshPowerMWRank float64 // refresh power per rank, milliwatts
	StandbyPowerMWRank float64 // background/standby power per rank, milliwatts
}

// DDR4 returns the DDR4-3200 configuration from Table 3 with the given
// channel/rank count. Row buffer is 8KB, 16 banks/rank, capacity follows
// from RowsPerBank.
func DDR4(channels, ranks int, rowsPerBank uint64) Config {
	tck := 625 * engine.Picosecond // 1600MHz clock, 3200MT/s
	return Config{
		Channels:        channels,
		RanksPerChannel: ranks,
		BanksPerRank:    16,
		RowsPerBank:     rowsPerBank,
		RowBytes:        8 << 10,
		TCK:             tck,
		TCL:             13750 * engine.Picosecond,
		TRCD:            13750 * engine.Picosecond,
		TRP:             13750 * engine.Picosecond,
		TBurst:          4 * tck, // BL8 on a 64-bit bus
		TRFC:            350 * engine.Nanosecond,
		TREFI:           7800 * engine.Nanosecond,
		RowHitCap:       4,
		QueueWindow:     64,

		ActEnergyPJ:        22000, // ~22nJ per ACT+PRE across a rank
		BurstEnergyPJ:      13000, // ~13nJ per 64B burst
		RefreshPowerMWRank: 60,
		StandbyPowerMWRank: 320,
	}
}

// TotalBytes returns the DRAM capacity implied by the configuration.
func (c Config) TotalBytes() uint64 {
	return uint64(c.Channels) * uint64(c.RanksPerChannel) * uint64(c.BanksPerRank) *
		c.RowsPerBank * c.RowBytes
}

// Decode splits a machine-physical address into its DRAM location using the
// static mapping: column bits low (row-buffer locality for sequential
// blocks), then bank, then rank, then row; channels interleave at row
// granularity so a 4KB page stays within one channel's row.
func (c Config) Decode(addr uint64) location {
	block := addr / c.RowBytes // row-sized units
	var loc location
	loc.channel = int(block % uint64(c.Channels))
	block /= uint64(c.Channels)
	loc.bank = int(block % uint64(c.BanksPerRank))
	block /= uint64(c.BanksPerRank)
	loc.rank = int(block % uint64(c.RanksPerChannel))
	block /= uint64(c.RanksPerChannel)
	loc.row = block % c.RowsPerBank
	loc.bank += loc.rank * c.BanksPerRank
	return loc
}

// Stats aggregates DRAM activity over a run.
type Stats struct {
	Reads       stats.Counter
	Writes      stats.Counter
	Activates   stats.Counter
	RowHits     stats.Counter
	RowMisses   stats.Counter
	RowClosed   stats.Counter
	ClassBursts [numClasses]stats.Counter
	BusBusy     engine.Time
}

// Bursts returns the total number of data bursts served.
func (s *Stats) Bursts() uint64 { return s.Reads.Value() + s.Writes.Value() }

// RowHitRate returns the fraction of column accesses that hit an open row
// (row-buffer locality; closed-row and conflict accesses both miss).
func (s *Stats) RowHitRate() float64 {
	return stats.Ratio(s.RowHits.Value(),
		s.RowHits.Value()+s.RowMisses.Value()+s.RowClosed.Value())
}

// ClassBytes returns bytes moved for a traffic class.
func (s *Stats) ClassBytes(c Class) uint64 { return s.ClassBursts[c].Value() * 64 }

// TotalBytes returns all bytes moved.
func (s *Stats) TotalBytes() uint64 { return s.Bursts() * 64 }

// Utilization returns the fraction of elapsed time the data bus was busy.
func (s *Stats) Utilization(elapsed engine.Time) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(s.BusBusy) / float64(elapsed)
}

// EnergyPJ returns total DRAM energy in picojoules over the elapsed window:
// dynamic (ACT + bursts) plus background and refresh power integrated over
// time for every rank in the system.
func (s *Stats) EnergyPJ(cfg Config, elapsed engine.Time) float64 {
	dynamic := float64(s.Activates.Value())*cfg.ActEnergyPJ +
		float64(s.Bursts())*cfg.BurstEnergyPJ
	ranks := float64(cfg.Channels * cfg.RanksPerChannel)
	// mW * ns = pJ
	static := (cfg.RefreshPowerMWRank + cfg.StandbyPowerMWRank) * ranks *
		(float64(elapsed) / float64(engine.Nanosecond))
	return dynamic + static
}

type bank struct {
	openRow   int64 // -1 when closed
	readyAt   engine.Time
	hitStreak int
}

// slot is the controller's copy of one queued request.
type slot struct {
	done  func(now engine.Time)
	row   int64 // compared with bank.openRow
	class Class
	bank  int32 // global bank index within the channel
	next  int32 // next slot in the same bank list or in the free list; -1 ends it
	write bool
}

// slotShift sizes the slot pool's pages: 256 slots of 40 bytes, 10 KiB.
const slotShift = 8

// bankQueue is one bank's window requests in one queue: slots linked
// through slot.next in arrival order.
type bankQueue struct {
	head, tail int32 // -1 when empty
	n          int32 // requests linked
	hits       int32 // of which hit the bank's open row
}

// reqQueue is one scheduling queue, indexed by bank. Its first QueueWindow
// live requests in arrival order (all of them when QueueWindow is 0) form
// the scheduling window and sit in per-bank lists; later arrivals wait in
// overflow and join the window, in order, as window requests issue. busy
// has bit b set while bank b has window requests, so a decision visits only
// the banks with work.
type reqQueue struct {
	banks    []bankQueue
	busy     []uint64
	window   int // requests in the bank lists
	overflow ring
}

func (q *reqQueue) live() int { return q.window + q.overflow.n }

// nextBusy returns the first bank at or after b with window requests, or -1.
//
//dylect:hotpath
func (q *reqQueue) nextBusy(b int) int {
	w := b >> 6
	if w >= len(q.busy) {
		return -1
	}
	word := q.busy[w] &^ (1<<(b&63) - 1)
	for word == 0 {
		w++
		if w == len(q.busy) {
			return -1
		}
		word = q.busy[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// ring is a FIFO of slot indices whose buffer doubles when full, so it
// holds at most the deepest overflow seen.
type ring struct {
	buf  []int32 // length zero or a power of two
	head int
	n    int
}

func (r *ring) push(s int32) {
	if r.n == len(r.buf) {
		buf := make([]int32, max(16, 2*len(r.buf)))
		for i := range r.n {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = s
	r.n++
}

//dylect:hotpath
func (r *ring) pop() int32 {
	s := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return s
}

// channel keeps demand traffic and background maintenance traffic
// (migrations, background compression) in separate queues: background
// requests issue only when no foreground request is serviceable, so a long
// page-movement train cannot crowd demand out of the scheduling window.
type channel struct {
	fg        reqQueue
	bg        reqQueue
	banks     []bank
	busFree   engine.Time
	refreshAt []engine.Time // per rank: banks blocked until this time
	lastBank  int           // round-robin origin for bank fairness

	// Exactly one service wake-up is live per channel: armed/wakeAt track
	// it and wakeGen invalidates superseded ones (an earlier kick replaces
	// a later retry).
	armed   bool
	wakeAt  engine.Time
	wakeGen uint64
}

func (ch *channel) live() int { return ch.fg.live() + ch.bg.live() }

// Controller is the DRAM memory device model: it accepts Requests and
// completes them according to bank timing, bus occupancy and scheduling
// policy. All the compressed-memory machinery (package mc and above) sits in
// front of it.
type Controller struct {
	eng   *engine.Engine
	cfg   Config
	chans []*channel
	stats Stats
	// The slot pool: queued requests live in fixed-size pages, so growing
	// it never moves a slot, and a slot is reused once its request issues.
	pages [][]slot
	used  int   // slots handed out so far
	free  int32 // head of the free-slot list, -1 when empty
}

// NewController builds a controller on the given engine.
func NewController(eng *engine.Engine, cfg Config) *Controller {
	c := &Controller{eng: eng, cfg: cfg, free: -1}
	c.chans = make([]*channel, cfg.Channels)
	nbanks := cfg.RanksPerChannel * cfg.BanksPerRank
	for i := range c.chans {
		ch := &channel{
			banks:     make([]bank, nbanks),
			refreshAt: make([]engine.Time, cfg.RanksPerChannel),
		}
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		for _, q := range []*reqQueue{&ch.fg, &ch.bg} {
			q.banks = make([]bankQueue, nbanks)
			for b := range q.banks {
				q.banks[b].head, q.banks[b].tail = -1, -1
			}
			q.busy = make([]uint64, (nbanks+63)/64)
		}
		c.chans[i] = ch
	}
	return c
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats exposes the accumulated statistics.
func (c *Controller) Stats() *Stats { return &c.stats }

// ResetStats zeroes the statistics (used when the timed window begins after
// functional warmup).
func (c *Controller) ResetStats() { c.stats = Stats{} }

// StartRefresh schedules periodic per-rank refresh up to the horizon.
// Refresh closes all rows in the rank and blocks its banks for tRFC.
func (c *Controller) StartRefresh(horizon engine.Time) {
	for ci, ch := range c.chans {
		for r := 0; r < c.cfg.RanksPerChannel; r++ {
			ci, ch, r := ci, ch, r
			var tick func()
			tick = func() {
				now := c.eng.Now()
				ch.refreshAt[r] = now + c.cfg.TRFC
				base := r * c.cfg.BanksPerRank
				for b := base; b < base+c.cfg.BanksPerRank; b++ {
					bk := &ch.banks[b]
					bk.openRow = -1
					ch.fg.banks[b].hits = 0
					ch.bg.banks[b].hits = 0
					if bk.readyAt < ch.refreshAt[r] {
						bk.readyAt = ch.refreshAt[r]
					}
				}
				if now+c.cfg.TREFI <= horizon {
					c.eng.Schedule(c.cfg.TREFI, tick)
				}
				c.kick(ci)
			}
			c.eng.Schedule(c.cfg.TREFI, tick)
		}
	}
}

// Submit enqueues a copy of req. The Done callback fires when its data
// burst finishes.
//
//dylect:hotpath
func (c *Controller) Submit(req Request) {
	loc := c.cfg.Decode(req.Addr)
	s := c.alloc()
	*c.slot(s) = slot{
		done: req.Done, row: int64(loc.row), bank: int32(loc.bank),
		class: req.Class, write: req.Write,
	}
	ci := loc.channel
	ch := c.chans[ci]
	q := &ch.fg
	if req.Background {
		q = &ch.bg
	}
	if c.cfg.QueueWindow == 0 || q.window < c.cfg.QueueWindow {
		c.link(ch, q, s)
	} else {
		q.overflow.push(s)
	}
	c.kick(ci)
}

//dylect:hotpath
func (c *Controller) slot(s int32) *slot { return &c.pages[s>>slotShift][s&(1<<slotShift-1)] }

// alloc returns a free slot, adding a page only when every slot holds a
// queued request.
func (c *Controller) alloc() int32 {
	if s := c.free; s >= 0 {
		c.free = c.slot(s).next
		return s
	}
	if c.used == len(c.pages)<<slotShift {
		c.pages = append(c.pages, make([]slot, 1<<slotShift))
	}
	c.used++
	return int32(c.used - 1)
}

// link appends slot s to its bank's list in q's window.
//
//dylect:hotpath
func (c *Controller) link(ch *channel, q *reqQueue, s int32) {
	r := c.slot(s)
	r.next = -1
	b := int(r.bank)
	bq := &q.banks[b]
	if bq.tail < 0 {
		bq.head = s
		q.busy[b>>6] |= 1 << (b & 63)
	} else {
		c.slot(bq.tail).next = s
	}
	bq.tail = s
	bq.n++
	if ch.banks[b].openRow == r.row {
		bq.hits++
	}
	q.window++
}

// take unlinks bank b's earliest window request in q that hits its open
// row (hit) or misses it (!hit), lets the oldest overflow request into the
// window, and returns the slot.
//
//dylect:hotpath
func (c *Controller) take(ch *channel, q *reqQueue, b int, hit bool) int32 {
	bq := &q.banks[b]
	open := ch.banks[b].openRow
	prev, s := int32(-1), bq.head
	for (open == c.slot(s).row) != hit {
		prev, s = s, c.slot(s).next
	}
	next := c.slot(s).next
	if prev < 0 {
		bq.head = next
	} else {
		c.slot(prev).next = next
	}
	if bq.tail == s {
		bq.tail = prev
	}
	bq.n--
	if hit {
		bq.hits--
	}
	if bq.n == 0 {
		q.busy[b>>6] &^= 1 << (b & 63)
	}
	q.window--
	if q.overflow.n > 0 {
		c.link(ch, q, q.overflow.pop())
	}
	return s
}

// countHits recounts bank b's window requests that hit its (new) open row.
//
//dylect:hotpath
func (c *Controller) countHits(ch *channel, b int) {
	open := ch.banks[b].openRow
	for _, bq := range [2]*bankQueue{&ch.fg.banks[b], &ch.bg.banks[b]} {
		bq.hits = 0
		for s := bq.head; s >= 0; s = c.slot(s).next {
			if open == c.slot(s).row {
				bq.hits++
			}
		}
	}
}

func (c *Controller) kick(ci int) {
	c.armService(ci, c.eng.Now())
}

// armService schedules the channel's next service pass at `at`, keeping at
// most one live wake-up per channel (an earlier wake supersedes a later
// one; stale events check the generation and bail).
func (c *Controller) armService(ci int, at engine.Time) {
	ch := c.chans[ci]
	if ch.armed && ch.wakeAt <= at {
		return
	}
	ch.armed = true
	ch.wakeAt = at
	ch.wakeGen++
	gen := ch.wakeGen
	c.eng.ScheduleAt(at, func() {
		if gen != ch.wakeGen {
			return // superseded by an earlier wake
		}
		ch.armed = false
		c.service(ci)
	})
}

// service issues as many requests as the current bank/bus state allows, then
// (if work remains) re-arms itself at the earliest time state changes.
//
//dylect:hotpath
func (c *Controller) service(ci int) {
	ch := c.chans[ci]
	now := c.eng.Now()
	for ch.live() > 0 {
		s := c.pick(ch, &ch.fg, now)
		if s < 0 {
			s = c.pick(ch, &ch.bg, now)
		}
		if s < 0 {
			break
		}
		c.issue(ch, s, now)
	}
	if ch.live() > 0 {
		c.armService(ci, c.nextReady(ch, now))
	}
}

// pick implements FR-FCFS over q's window, with a row-hit streak cap and
// bank fairness, and takes the winner out of the queue. A request is
// eligible when its bank and rank are ready. An open-row hit under the
// streak cap scores 5, any other request 1, a capped hit 0 (so a streak
// cannot starve a conflicting request); the highest score wins, ties go to
// the bank nearest after lastBank, then to the earliest arrival. Every
// window request of a bank shares its readiness, and its score depends only
// on whether it hits the open row, so visiting the busy banks in fairness
// order finds the same winner: the first uncapped bank with hits, else the
// first bank with a request that misses, else the first bank of capped
// hits. pick returns the winner's slot, or -1 if no bank is ready.
//
//dylect:hotpath
func (c *Controller) pick(ch *channel, q *reqQueue, now engine.Time) int32 {
	n := len(ch.banks)
	start := ch.lastBank + 1
	if start == n {
		start = 0
	}
	miss, capped := -1, -1
	for pass := 0; pass < 2; pass++ {
		lo, hi := start, n
		if pass == 1 {
			lo, hi = 0, start
		}
		for b := q.nextBusy(lo); b >= 0 && b < hi; b = q.nextBusy(b + 1) {
			bk := &ch.banks[b]
			if bk.readyAt > now || ch.refreshAt[b/c.cfg.BanksPerRank] > now {
				continue
			}
			bq := &q.banks[b]
			switch {
			case bq.hits > 0 && bk.hitStreak < c.cfg.RowHitCap:
				return c.take(ch, q, b, true)
			case bq.hits < bq.n:
				if miss < 0 {
					miss = b
				}
			case capped < 0:
				capped = b
			}
		}
	}
	switch {
	case miss >= 0:
		return c.take(ch, q, miss, false)
	case capped >= 0:
		return c.take(ch, q, capped, true)
	}
	return -1
}

// nextReady returns the earliest time a bank with window requests in either
// queue becomes ready, or one clock after now if that time has come.
//
//dylect:hotpath
func (c *Controller) nextReady(ch *channel, now engine.Time) engine.Time {
	next := engine.Time(^uint64(0))
	for w, word := range ch.fg.busy {
		for word |= ch.bg.busy[w]; word != 0; word &= word - 1 {
			b := w<<6 + bits.TrailingZeros64(word)
			t := ch.banks[b].readyAt
			if rt := ch.refreshAt[b/c.cfg.BanksPerRank]; rt > t {
				t = rt
			}
			if t < next {
				next = t
			}
		}
	}
	if next <= now {
		next = now + c.cfg.TCK
	}
	return next
}

// issue serves the request in slot s and frees the slot.
//
//dylect:hotpath
func (c *Controller) issue(ch *channel, s int32, now engine.Time) {
	req := c.slot(s)
	b, row := int(req.bank), req.row
	bk := &ch.banks[b]
	var access engine.Time
	switch {
	case bk.openRow == row:
		access = c.cfg.TCL
		bk.hitStreak++
		c.stats.RowHits.Inc()
	case bk.openRow < 0:
		access = c.cfg.TRCD + c.cfg.TCL
		bk.hitStreak = 0
		c.stats.RowClosed.Inc()
		c.stats.Activates.Inc()
	default:
		access = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCL
		bk.hitStreak = 0
		c.stats.RowMisses.Inc()
		c.stats.Activates.Inc()
	}
	if bk.openRow != row {
		bk.openRow = row
		c.countHits(ch, b)
	}

	dataStart := now + access
	if ch.busFree > dataStart {
		dataStart = ch.busFree
	}
	dataEnd := dataStart + c.cfg.TBurst
	ch.busFree = dataEnd
	bk.readyAt = dataEnd
	ch.lastBank = b

	c.stats.BusBusy += c.cfg.TBurst
	if req.write {
		c.stats.Writes.Inc()
	} else {
		c.stats.Reads.Inc()
	}
	c.stats.ClassBursts[req.class].Inc()

	done := req.done
	req.done = nil // the free slot must not pin the callback
	req.next = c.free
	c.free = s
	if done != nil {
		//lint:ignore hotalloc one completion closure per burst is the event-driven design; it carries only two words
		c.eng.ScheduleAt(dataEnd, func() { done(dataEnd) })
	}
}

// QueueLen returns the number of queued (not yet issued) requests across all
// channels; used by tests and backpressure heuristics.
func (c *Controller) QueueLen() int {
	n := 0
	for _, ch := range c.chans {
		n += ch.live()
	}
	return n
}
