package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dylect/internal/engine"
)

// scanController is the FR-FCFS scheduler the per-bank index replaced, kept
// as the differential reference. Each decision rescans the first
// QueueWindow live requests of a queue in arrival order and scores every
// request whose bank and rank are ready: an open-row hit under the streak
// cap scores 5, any other request 1, a capped hit 0. The highest score
// wins; ties go to the bank nearest after lastBank, then to the earliest
// arrival. Refresh, bus timing, stats and the one-wake-up-per-channel
// service loop are the controller's, copied unchanged.
type scanController struct {
	eng   *engine.Engine
	cfg   Config
	chans []*scanChannel
	stats Stats
}

// scanReq is the reference's heap copy of a submitted request.
type scanReq struct {
	Request
	enq engine.Time
	loc location
}

// scanQueue is one scheduling queue with lazy removal.
type scanQueue struct {
	queue []*scanReq // issued entries are nilled; head skips them
	head  int
	live  int
}

func (q *scanQueue) push(r *scanReq) {
	q.queue = append(q.queue, r)
	q.live++
}

// forEachPending visits up to `window` live requests in FCFS order, passing
// their absolute queue positions. Visiting stops early if f returns false.
func (q *scanQueue) forEachPending(window int, f func(pos int, r *scanReq) bool) {
	count := 0
	for i := q.head; i < len(q.queue); i++ {
		r := q.queue[i]
		if r == nil {
			continue
		}
		if !f(i, r) {
			return
		}
		count++
		if window > 0 && count >= window {
			return
		}
	}
}

// remove nils the request at absolute queue position pos and
// advances/compacts the head.
func (q *scanQueue) remove(pos int) {
	q.queue[pos] = nil
	q.live--
	for q.head < len(q.queue) && q.queue[q.head] == nil {
		q.head++
	}
	if q.head > 4096 && q.head*2 > len(q.queue) {
		n := copy(q.queue, q.queue[q.head:])
		for j := n; j < len(q.queue); j++ {
			q.queue[j] = nil
		}
		q.queue = q.queue[:n]
		q.head = 0
	}
}

type scanChannel struct {
	fg        scanQueue
	bg        scanQueue
	banks     []bank
	busFree   engine.Time
	refreshAt []engine.Time
	lastBank  int

	armed   bool
	wakeAt  engine.Time
	wakeGen uint64
}

func (ch *scanChannel) live() int { return ch.fg.live + ch.bg.live }

func newScanController(eng *engine.Engine, cfg Config) *scanController {
	c := &scanController{eng: eng, cfg: cfg}
	c.chans = make([]*scanChannel, cfg.Channels)
	for i := range c.chans {
		ch := &scanChannel{
			banks:     make([]bank, cfg.RanksPerChannel*cfg.BanksPerRank),
			refreshAt: make([]engine.Time, cfg.RanksPerChannel),
		}
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		c.chans[i] = ch
	}
	return c
}

func (c *scanController) Stats() *Stats { return &c.stats }

func (c *scanController) StartRefresh(horizon engine.Time) {
	for ci, ch := range c.chans {
		for r := 0; r < c.cfg.RanksPerChannel; r++ {
			ci, ch, r := ci, ch, r
			var tick func()
			tick = func() {
				now := c.eng.Now()
				ch.refreshAt[r] = now + c.cfg.TRFC
				base := r * c.cfg.BanksPerRank
				for b := 0; b < c.cfg.BanksPerRank; b++ {
					bk := &ch.banks[base+b]
					bk.openRow = -1
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

// Submit enqueues a heap copy of r.
func (c *scanController) Submit(r Request) {
	req := &scanReq{Request: r}
	req.enq = c.eng.Now()
	req.loc = c.cfg.Decode(req.Addr)
	ch := c.chans[req.loc.channel]
	if req.Background {
		ch.bg.push(req)
	} else {
		ch.fg.push(req)
	}
	if ch.live() > c.stats.QueuePeak {
		c.stats.QueuePeak = ch.live()
	}
	c.kick(req.loc.channel)
}

func (c *scanController) kick(ci int) {
	c.armService(ci, c.eng.Now())
}

func (c *scanController) armService(ci int, at engine.Time) {
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
			return
		}
		ch.armed = false
		c.service(ci)
	})
}

func (c *scanController) service(ci int) {
	ch := c.chans[ci]
	now := c.eng.Now()
	for ch.live() > 0 {
		q := &ch.fg
		pos := c.pick(ch, q, now)
		if pos < 0 {
			q = &ch.bg
			pos = c.pick(ch, q, now)
		}
		if pos < 0 {
			break
		}
		req := q.queue[pos]
		q.remove(pos)
		c.issue(ch, req, now)
	}
	if ch.live() > 0 {
		c.armService(ci, c.nextReady(ch, now))
	}
}

func (c *scanController) pick(ch *scanChannel, q *scanQueue, now engine.Time) int {
	best := -1
	bestScore := -1
	q.forEachPending(c.cfg.QueueWindow, func(i int, req *scanReq) bool {
		bk := &ch.banks[req.loc.bank]
		if bk.readyAt > now || ch.refreshAt[req.loc.rank] > now {
			return true
		}
		score := 1
		if bk.openRow == int64(req.loc.row) {
			if bk.hitStreak < c.cfg.RowHitCap {
				score += 4
			} else {
				score--
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		} else if score == bestScore && best >= 0 {
			bi := (req.loc.bank - ch.lastBank - 1 + len(ch.banks)) % len(ch.banks)
			bj := (q.queue[best].loc.bank - ch.lastBank - 1 + len(ch.banks)) % len(ch.banks)
			if bi < bj {
				best = i
			}
		}
		return true
	})
	return best
}

func (c *scanController) nextReady(ch *scanChannel, now engine.Time) engine.Time {
	next := engine.Time(^uint64(0))
	scan := func(_ int, req *scanReq) bool {
		t := ch.banks[req.loc.bank].readyAt
		if rt := ch.refreshAt[req.loc.rank]; rt > t {
			t = rt
		}
		if t < next {
			next = t
		}
		return true
	}
	ch.fg.forEachPending(c.cfg.QueueWindow, scan)
	ch.bg.forEachPending(c.cfg.QueueWindow, scan)
	if next <= now {
		next = now + c.cfg.TCK
	}
	return next
}

func (c *scanController) issue(ch *scanChannel, req *scanReq, now engine.Time) {
	bk := &ch.banks[req.loc.bank]
	var access engine.Time
	switch {
	case bk.openRow == int64(req.loc.row):
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
	bk.openRow = int64(req.loc.row)

	dataStart := now + access
	if ch.busFree > dataStart {
		dataStart = ch.busFree
	}
	dataEnd := dataStart + c.cfg.TBurst
	ch.busFree = dataEnd
	bk.readyAt = dataEnd
	ch.lastBank = req.loc.bank

	c.stats.BusBusy += c.cfg.TBurst
	if req.Write {
		c.stats.Writes.Inc()
	} else {
		c.stats.Reads.Inc()
	}
	c.stats.ClassBursts[req.Class].Inc()
	c.stats.Latency.Observe((dataEnd - req.enq).Nanoseconds())

	if req.Done != nil {
		done := req.Done
		c.eng.ScheduleAt(dataEnd, func() { done(dataEnd) })
	}
}

func (c *scanController) QueueLen() int {
	n := 0
	for _, ch := range c.chans {
		n += ch.live()
	}
	return n
}

// scheduler is the surface the differential tests drive; *Controller and
// *scanController both implement it.
type scheduler interface {
	Submit(Request)
	StartRefresh(horizon engine.Time)
	Stats() *Stats
	QueueLen() int
}

// schedStream is one differential input: a DRAM setting and the requests
// submitted to it at fixed simulated times.
type schedStream struct {
	cfg     Config
	refresh bool
	ops     []schedOp
}

type schedOp struct {
	at     engine.Time
	req    Request // Done is attached by runStream
	noDone bool    // submit without a completion callback
	chain  bool    // the completion submits a follow-up to the next row of the bank
}

// completion is one fired Done callback: which request, and when.
type completion struct {
	id int
	at engine.Time
}

// schedRun is everything a stream's run exposes: the completions in firing
// order, the stats, and the engine's final clock and event count.
type schedRun struct {
	log      []completion
	stats    Stats
	now      engine.Time
	executed uint64
	queued   int
}

// addrOf inverts Config.Decode.
func addrOf(cfg Config, ch, rank, bank int, row, col uint64) uint64 {
	block := ((row*uint64(cfg.RanksPerChannel)+uint64(rank))*uint64(cfg.BanksPerRank)+uint64(bank))*
		uint64(cfg.Channels) + uint64(ch)
	return block*cfg.RowBytes + col*64
}

// add appends one request to bank (ch, rank, bank), row and column col.
func (st *schedStream) add(at engine.Time, ch, rank, bank int, row, col uint64, bg, write, noDone, chain bool) {
	class := ClassDemand
	if bg {
		class = ClassMigration
	}
	st.ops = append(st.ops, schedOp{
		at:     at,
		req:    Request{Addr: addrOf(st.cfg, ch, rank, bank, row, col), Write: write, Class: class, Background: bg},
		noDone: noDone, chain: chain,
	})
}

// runStream submits the stream's requests at their times to the indexed
// controller or the scan reference, runs the engine dry and reports the run.
func runStream(st schedStream, indexed bool) schedRun {
	eng := engine.New()
	var s scheduler
	if indexed {
		s = NewController(eng, st.cfg)
	} else {
		s = newScanController(eng, st.cfg)
	}
	var run schedRun
	if st.refresh && len(st.ops) > 0 {
		s.StartRefresh(st.ops[len(st.ops)-1].at + 20*engine.Microsecond)
	}
	for i, op := range st.ops {
		eng.ScheduleAt(op.at, func() {
			req := op.req
			if !op.noDone {
				req.Done = func(now engine.Time) {
					run.log = append(run.log, completion{i, now})
					if op.chain {
						next := op.req
						next.Addr += st.cfg.RowBytes * uint64(st.cfg.Channels*st.cfg.RanksPerChannel*st.cfg.BanksPerRank)
						next.Done = func(now engine.Time) {
							run.log = append(run.log, completion{len(st.ops) + i, now})
						}
						s.Submit(next)
					}
				}
			}
			s.Submit(req)
		})
	}
	eng.Run()
	run.stats = *s.Stats()
	run.now, run.executed, run.queued = eng.Now(), eng.Executed(), s.QueueLen()
	return run
}

// compareRuns fails t at the first difference between the indexed run and
// the reference run of st.
func compareRuns(t *testing.T, st schedStream) {
	t.Helper()
	got, want := runStream(st, true), runStream(st, false)
	for i := 0; i < len(got.log) && i < len(want.log); i++ {
		if got.log[i] != want.log[i] {
			t.Fatalf("completion %d: indexed request %d at %v, reference request %d at %v",
				i, got.log[i].id, got.log[i].at, want.log[i].id, want.log[i].at)
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("indexed fired %d completions, reference %d", len(got.log), len(want.log))
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Fatalf("stats differ:\nindexed   %+v\nreference %+v", got.stats, want.stats)
	}
	if got.now != want.now || got.executed != want.executed || got.queued != want.queued {
		t.Fatalf("indexed ended at %v after %d events with %d queued, reference at %v after %d with %d",
			got.now, got.executed, got.queued, want.now, want.executed, want.queued)
	}
}

// randomStream draws a stream over a few hot banks and rows, so row hits,
// conflicts, bank ties and capped streaks are common: single fg and bg
// requests at bunched or spread times, some without a callback and some
// chaining a follow-up, plus same-row trains longer than any window.
func randomStream(rng *rand.Rand, channels, ranks, window, rowHitCap int, n int) schedStream {
	cfg := DDR4(channels, ranks, 16)
	cfg.QueueWindow = window
	cfg.RowHitCap = rowHitCap
	cfg.TREFI = 3 * engine.Microsecond // several refreshes per stream
	st := schedStream{cfg: cfg, refresh: true}
	type hotBank struct{ ch, rank, bank int }
	hot := make([]hotBank, 3+rng.Intn(4))
	for i := range hot {
		hot[i] = hotBank{rng.Intn(channels), rng.Intn(ranks), rng.Intn(cfg.BanksPerRank)}
	}
	var at engine.Time
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 4:
		case r < 8:
			at += engine.Time(1+rng.Intn(20)) * engine.Nanosecond
		default:
			at += engine.Time(100+rng.Intn(2000)) * engine.Nanosecond
		}
		h := hot[rng.Intn(len(hot))]
		row := uint64(rng.Intn(4))
		if rng.Intn(40) == 0 {
			// A page-movement train: one row, more bursts than the window.
			length := 65 + rng.Intn(64)
			bg, write := rng.Intn(4) != 0, rng.Intn(2) == 0
			for col := 0; col < length; col++ {
				st.add(at, h.ch, h.rank, h.bank, row, uint64(col), bg, write, rng.Intn(8) == 0, false)
			}
			continue
		}
		st.add(at, h.ch, h.rank, h.bank, row, uint64(rng.Intn(128)),
			rng.Intn(3) == 0, rng.Intn(4) == 0, rng.Intn(10) == 0, rng.Intn(5) == 0)
	}
	return st
}

// TestIndexedMatchesScanReference: the per-bank index issues every request
// in the same order and completes it at the same time as the scan it
// replaced, with the same stats and the same events, over randomized
// streams at 2, 8 and 16 ranks and QueueWindow 0, 1 and 64 (plus a small
// window, two channels and a tighter streak cap).
func TestIndexedMatchesScanReference(t *testing.T) {
	type setting struct{ channels, ranks, window, rowHitCap int }
	var settings []setting
	for _, ranks := range []int{2, 8, 16} {
		for _, window := range []int{0, 1, 64} {
			settings = append(settings, setting{1, ranks, window, 4})
		}
	}
	settings = append(settings, setting{1, 8, 4, 4}, setting{2, 8, 64, 4}, setting{1, 2, 64, 1}, setting{2, 16, 0, 2})
	for _, s := range settings {
		t.Run(fmt.Sprintf("ch%d-ranks%d-window%d-cap%d", s.channels, s.ranks, s.window, s.rowHitCap), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(s.ranks*100+s.window)))
				compareRuns(t, randomStream(rng, s.channels, s.ranks, s.window, s.rowHitCap, 1500))
			}
		})
	}
}

// FuzzSchedulerMatchesReference drives the differential test from fuzz
// bytes. The first two bytes pick the setting; each following triple is
// one request (bank, row and flags, time step), or a same-row train.
func FuzzSchedulerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 0, 1, 9, 5})
	f.Add([]byte{4, 1, 3, 0x44, 0, 3, 0x05, 0, 3, 0x01, 0, 2, 0x20, 0x80, 3, 0x0c, 0x10})
	f.Add([]byte{11, 0, 0, 0x40, 0, 0, 0x41, 0, 1, 0x02, 0, 0, 0x03, 0x90, 0, 0x10, 0})
	f.Add([]byte{23, 1, 7, 0x33, 0xff, 2, 0x04, 0, 7, 0x40, 0, 5, 0x01, 0x81, 7, 0x00, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ranks := []int{2, 8, 16}[data[0]%3]
		window := []int{0, 1, 64, 4}[data[0]/3%4]
		rowHitCap := []int{4, 1}[data[0]/12%2]
		channels := 1 + int(data[1]%2)
		cfg := DDR4(channels, ranks, 16)
		cfg.QueueWindow = window
		cfg.RowHitCap = rowHitCap
		cfg.TREFI = 3 * engine.Microsecond
		st := schedStream{cfg: cfg, refresh: data[0]/24%2 == 0}
		var at engine.Time
		for i := 2; i+2 < len(data) && i < 2+3*300; i += 3 {
			b, flags, step := data[i], data[i+1], data[i+2]
			// Eight hot banks spread over the ranks and channels.
			ch, rank, bank := int(b)%channels, int(b>>1)%ranks, int(b>>4)%4
			row := uint64(flags & 3)
			bg, write, noDone, chain := flags&4 != 0, flags&8 != 0, flags&16 != 0, flags&32 != 0
			if step&0x80 != 0 {
				at += engine.Time(step&0x7f) * 20 * engine.Nanosecond
			} else {
				at += engine.Time(step&0x0f) * engine.Nanosecond
			}
			if flags&0x40 != 0 {
				for col := 0; col < 65+int(b%64); col++ {
					st.add(at, ch, rank, bank, row, uint64(col), bg, write, noDone, false)
				}
				continue
			}
			st.add(at, ch, rank, bank, row, uint64(step), bg, write, noDone, chain)
		}
		compareRuns(t, st)
	})
}
