package dram

import (
	"testing"
	"testing/quick"

	"dylect/internal/engine"
)

func testConfig() Config {
	return DDR4(1, 2, 1<<10) // 1 channel, 2 ranks, 16 banks, 8KB rows = 256MB
}

func TestConfigCapacity(t *testing.T) {
	cfg := testConfig()
	want := uint64(1) * 2 * 16 * (1 << 10) * (8 << 10)
	if cfg.TotalBytes() != want {
		t.Fatalf("TotalBytes = %d, want %d", cfg.TotalBytes(), want)
	}
}

func TestDecodeRoundTripDistinct(t *testing.T) {
	cfg := testConfig()
	seen := map[location]bool{}
	// Row-sized strides must hit distinct (bank,row) slots until capacity wraps.
	for i := uint64(0); i < 512; i++ {
		loc := cfg.Decode(i * cfg.RowBytes)
		if seen[loc] {
			t.Fatalf("address %d maps to duplicate location %+v", i*cfg.RowBytes, loc)
		}
		seen[loc] = true
	}
}

func TestDecodeSequentialBlocksSameRow(t *testing.T) {
	cfg := testConfig()
	base := cfg.Decode(0)
	for off := uint64(64); off < cfg.RowBytes; off += 64 {
		loc := cfg.Decode(off)
		if loc != base {
			t.Fatalf("block at %d left the row: %+v vs %+v", off, loc, base)
		}
	}
	if cfg.Decode(cfg.RowBytes) == base {
		t.Fatal("next row mapped to same location")
	}
}

func TestSingleReadLatency(t *testing.T) {
	eng := engine.New()
	c := NewController(eng, testConfig())
	var done engine.Time
	c.Submit(Request{Addr: 0, Done: func(now engine.Time) { done = now }})
	eng.Run()
	// Closed bank: tRCD + tCL + burst.
	want := c.cfg.TRCD + c.cfg.TCL + c.cfg.TBurst
	if done != want {
		t.Fatalf("completion at %v, want %v", done, want)
	}
	if c.Stats().Reads.Value() != 1 || c.Stats().RowClosed.Value() != 1 {
		t.Fatalf("stats: %+v", c.Stats())
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	eng := engine.New()
	c := NewController(eng, testConfig())
	var t1, t2, t3 engine.Time
	c.Submit(Request{Addr: 0, Done: func(n engine.Time) { t1 = n }})
	c.Submit(Request{Addr: 64, Done: func(n engine.Time) { t2 = n }})
	eng.Run()
	hitGap := t2 - t1
	// Row conflict: same bank, different row.
	cfg := c.cfg
	conflictAddr := cfg.RowBytes * uint64(cfg.Channels*cfg.BanksPerRank*cfg.RanksPerChannel)
	if c.cfg.Decode(conflictAddr).bank != c.cfg.Decode(0).bank {
		t.Fatal("test bug: conflict address not in same bank")
	}
	c.Submit(Request{Addr: conflictAddr, Done: func(n engine.Time) { t3 = n }})
	eng.Run()
	missGap := t3 - t2
	if hitGap >= missGap {
		t.Fatalf("row hit gap %v not faster than conflict gap %v", hitGap, missGap)
	}
	if c.Stats().RowHits.Value() != 1 || c.Stats().RowMisses.Value() != 1 {
		t.Fatalf("row stats wrong: hits=%d misses=%d",
			c.Stats().RowHits.Value(), c.Stats().RowMisses.Value())
	}
}

func TestBankParallelismBeatsSerialization(t *testing.T) {
	cfg := testConfig()
	// Two requests to different banks should overlap their activations.
	eng := engine.New()
	c := NewController(eng, cfg)
	var last engine.Time
	c.Submit(Request{Addr: 0, Done: func(n engine.Time) { last = n }})
	c.Submit(Request{Addr: cfg.RowBytes, Done: func(n engine.Time) {
		if n > last {
			last = n
		}
	}})
	eng.Run()
	serial := 2 * (cfg.TRCD + cfg.TCL + cfg.TBurst)
	if last >= serial {
		t.Fatalf("two-bank completion %v not faster than serial %v", last, serial)
	}
}

func TestForegroundPriority(t *testing.T) {
	cfg := testConfig()
	eng := engine.New()
	c := NewController(eng, cfg)
	var order []string
	// Same bank, same row: scheduler picks foreground first despite queue order.
	c.Submit(Request{Addr: 0, Background: true, Class: ClassMigration,
		Done: func(engine.Time) { order = append(order, "bg") }})
	c.Submit(Request{Addr: 64,
		Done: func(engine.Time) { order = append(order, "fg") }})
	eng.Run()
	if len(order) != 2 || order[0] != "fg" {
		t.Fatalf("order = %v, want fg first", order)
	}
}

func TestRowHitCapYields(t *testing.T) {
	cfg := testConfig()
	cfg.RowHitCap = 2
	eng := engine.New()
	c := NewController(eng, cfg)
	var order []int
	// Queue: 4 row hits to row 0 and one request to another row in the
	// same bank. With cap=2, the conflicting request must not starve
	// behind all four hits.
	conflict := cfg.RowBytes * uint64(cfg.Channels*cfg.BanksPerRank*cfg.RanksPerChannel)
	for i := 0; i < 4; i++ {
		i := i
		c.Submit(Request{Addr: uint64(i * 64), Done: func(engine.Time) { order = append(order, i) }})
	}
	c.Submit(Request{Addr: conflict, Done: func(engine.Time) { order = append(order, 99) }})
	eng.Run()
	pos := -1
	for i, v := range order {
		if v == 99 {
			pos = i
		}
	}
	if pos < 0 || pos == len(order)-1 {
		t.Fatalf("row-hit cap did not bound streak; order=%v", order)
	}
}

func TestRefreshBlocksBank(t *testing.T) {
	cfg := testConfig()
	eng := engine.New()
	c := NewController(eng, cfg)
	c.StartRefresh(cfg.TREFI + cfg.TRFC)
	// Submit right as refresh begins.
	var done engine.Time
	eng.Schedule(cfg.TREFI, func() {
		c.Submit(Request{Addr: 0, Done: func(n engine.Time) { done = n }})
	})
	eng.Run()
	earliest := cfg.TREFI + cfg.TRFC + cfg.TRCD + cfg.TCL + cfg.TBurst
	if done < earliest {
		t.Fatalf("request completed at %v during refresh, earliest legal %v", done, earliest)
	}
}

func TestTrafficClassAccounting(t *testing.T) {
	eng := engine.New()
	c := NewController(eng, testConfig())
	c.Submit(Request{Addr: 0, Class: ClassDemand})
	c.Submit(Request{Addr: 64, Class: ClassCTE})
	c.Submit(Request{Addr: 128, Class: ClassCTE, Write: true})
	eng.Run()
	if c.Stats().ClassBytes(ClassDemand) != 64 {
		t.Fatalf("demand bytes = %d", c.Stats().ClassBytes(ClassDemand))
	}
	if c.Stats().ClassBytes(ClassCTE) != 128 {
		t.Fatalf("cte bytes = %d", c.Stats().ClassBytes(ClassCTE))
	}
	if c.Stats().TotalBytes() != 192 {
		t.Fatalf("total bytes = %d", c.Stats().TotalBytes())
	}
	if c.Stats().Writes.Value() != 1 || c.Stats().Reads.Value() != 2 {
		t.Fatal("read/write split wrong")
	}
}

func TestEnergyScalesWithRanks(t *testing.T) {
	cfg8 := DDR4(1, 8, 1<<10)
	cfg16 := DDR4(1, 16, 1<<10)
	var s Stats
	window := 10 * engine.Microsecond
	e8 := s.EnergyPJ(cfg8, window)
	e16 := s.EnergyPJ(cfg16, window)
	if e16 <= e8 {
		t.Fatalf("16-rank idle energy %v not above 8-rank %v", e16, e8)
	}
	ratio := e16 / e8
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("idle energy ratio = %v, want ~2 (idle dominated)", ratio)
	}
}

func TestUtilization(t *testing.T) {
	eng := engine.New()
	c := NewController(eng, testConfig())
	for i := 0; i < 8; i++ {
		c.Submit(Request{Addr: uint64(i) * 64})
	}
	eng.Run()
	u := c.Stats().Utilization(eng.Now())
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
}

// Property: all submitted requests complete exactly once, in any address mix.
func TestPropertyAllRequestsComplete(t *testing.T) {
	cfg := testConfig()
	f := func(addrs []uint32, bg []bool) bool {
		eng := engine.New()
		c := NewController(eng, cfg)
		want := len(addrs)
		got := 0
		for i, a := range addrs {
			r := Request{Addr: uint64(a), Done: func(engine.Time) { got++ }}
			if i < len(bg) {
				r.Background = bg[i]
			}
			c.Submit(r)
		}
		eng.Run()
		return got == want && c.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: completion time is never before the minimum possible service
// latency after enqueue.
func TestPropertyMinimumLatency(t *testing.T) {
	cfg := testConfig()
	minLat := cfg.TCL + cfg.TBurst
	f := func(addrs []uint16) bool {
		eng := engine.New()
		c := NewController(eng, cfg)
		ok := true
		for _, a := range addrs {
			submitted := eng.Now()
			c.Submit(Request{Addr: uint64(a) * 64, Done: func(n engine.Time) {
				if n-submitted < minLat {
					ok = false
				}
			}})
		}
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	if ClassDemand.String() != "demand" || ClassCTE.String() != "cte" ||
		ClassMigration.String() != "migration" || ClassWalk.String() != "walk" {
		t.Fatal("class names wrong")
	}
	if Class(42).String() != "class(42)" {
		t.Fatal("unknown class formatting wrong")
	}
}

func TestNoEventStorm(t *testing.T) {
	// Regression guard: a deep background queue must not spawn one retry
	// chain per submission. Events executed should stay within a small
	// constant factor of the number of requests.
	cfg := testConfig()
	eng := engine.New()
	c := NewController(eng, cfg)
	const n = 20000
	done := 0
	for i := 0; i < n; i++ {
		c.Submit(Request{
			Addr:       uint64(i*64) % cfg.TotalBytes(),
			Background: i%4 != 0,
			Done:       func(engine.Time) { done++ },
		})
	}
	eng.Run()
	if done != n {
		t.Fatalf("completed %d of %d", done, n)
	}
	if ev := eng.Executed(); ev > n*6 {
		t.Fatalf("event storm: %d events for %d requests", ev, n)
	}
}

func TestBackgroundTrainDoesNotStarveDemand(t *testing.T) {
	// A long background migration train followed by one demand request:
	// the demand must complete near the front, not after the train.
	cfg := testConfig()
	eng := engine.New()
	c := NewController(eng, cfg)
	var trainEnd, demandEnd engine.Time
	for i := 0; i < 512; i++ {
		req := dram_trainReq(i, &trainEnd)
		c.Submit(req)
	}
	c.Submit(Request{Addr: 1 << 20, Done: func(n engine.Time) { demandEnd = n }})
	eng.Run()
	if demandEnd >= trainEnd/4 {
		t.Fatalf("demand finished at %v, train at %v: background did not yield",
			demandEnd, trainEnd)
	}
}

// dram_trainReq builds one background burst of a sequential migration train.
func dram_trainReq(i int, end *engine.Time) Request {
	return Request{
		Addr: uint64(i * 64), Background: true, Class: ClassMigration,
		Done: func(n engine.Time) {
			if n > *end {
				*end = n
			}
		},
	}
}

func BenchmarkControllerThroughput(b *testing.B) {
	b.ReportAllocs()
	cfg := testConfig()
	eng := engine.New()
	c := NewController(eng, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(Request{Addr: uint64(i*4096) % cfg.TotalBytes()})
		if c.QueueLen() > 64 {
			eng.Run()
		}
	}
	eng.Run()
}
