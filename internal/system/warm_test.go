package system

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dylect/internal/engine"
	"dylect/internal/metrics"
	"dylect/internal/trace"
)

// frontBlind lists the Options fields the warmup front never reads, with
// why. A field in neither WarmKey nor this list fails
// TestWarmKeyCoversEveryOption, so a new option cannot silently alias two
// different warmups onto one image.
var frontBlind = map[string]string{
	"Design":        "selects the translator",
	"Setting":       "sizes DRAM, which warmup never touches",
	"CTECacheBytes": "translator geometry",
	"Granularity":   "translator geometry",
	"GroupSize":     "translator geometry",
	"PerfectCTE":    "translator policy",
	"EmbedPTB":      "translator policy: the front logs every hint; the translator decides whether to use it",
	"Ranks":         "DRAM geometry",
	"DyLeCT":        "translator policy",
	"Window":        "timed window only",
	"Audit":         "audits start at the warmup boundary",
	"Faults":        "injected inside the timed window",
	"Obs":           "armed at the warmup boundary; warmup events come from the translator, which replay drives identically",
}

// configFrontBlind is the same list for Config fields reached through
// Options.Cfg.
var configFrontBlind = map[string]string{
	"HugePages": "overridden by Options.HugePages, which is in the key",
}

// perturb changes v to a different value of its type.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.Set(reflect.Zero(v.Type()))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				perturb(t, v.Field(i))
				return
			}
		}
		t.Fatalf("cannot perturb %s: no exported field", v.Type())
	default:
		t.Fatalf("cannot perturb kind %s", v.Kind())
	}
}

// TestWarmKeyCoversEveryOption perturbs every Options field, and every Config
// field through Options.Cfg, one at a time: the warm key must change exactly
// when the field is not on a front-blind list.
func TestWarmKeyCoversEveryOption(t *testing.T) {
	w, _ := trace.ByName("omnetpp")
	base := Options{Workload: w, HugePages: true, WarmupAccesses: 100, ScaleDivisor: 4}
	ot := reflect.TypeOf(Options{})
	for i := 0; i < ot.NumField(); i++ {
		name := ot.Field(i).Name
		o := base
		perturb(t, reflect.ValueOf(&o).Elem().Field(i))
		_, blind := frontBlind[name]
		if changed := o.WarmKey() != base.WarmKey(); changed == blind {
			t.Errorf("Options.%s: warm key changed=%v, but front-blind=%v: put it in WarmKey or justify it in frontBlind", name, changed, blind)
		}
	}
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		cfg := Default()
		perturb(t, reflect.ValueOf(&cfg).Elem().Field(i))
		o := base
		o.Cfg = &cfg
		_, blind := configFrontBlind[name]
		if changed := o.WarmKey() != base.WarmKey(); changed == blind {
			t.Errorf("Config.%s: warm key changed=%v, but front-blind=%v", name, changed, blind)
		}
	}
	for name := range frontBlind {
		if _, ok := ot.FieldByName(name); !ok {
			t.Errorf("frontBlind names Options.%s, which does not exist", name)
		}
	}
}

// runShared runs opts through the shared path: restore from img (recorded
// by another design of the same warm key), then the timed window.
func runShared(t *testing.T, opts Options, img *WarmImage) *Result {
	t.Helper()
	m, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(img); err != nil {
		t.Fatal(err)
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// record runs opts through the recording path and returns its result and
// image.
func record(t *testing.T, opts Options) (*Result, *WarmImage) {
	t.Helper()
	m, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	img := m.WarmupRecorded()
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res, img
}

// TestRestoredWarmupIsExact: one image, recorded by a DyLeCT cell, restored
// concurrently into every design (4KB pages with PTB embedding, so walk
// hints are logged and replayed, and huge pages), gives results identical to
// live RunE, audited and with observability on.
func TestRestoredWarmupIsExact(t *testing.T) {
	w, _ := trace.ByName("omnetpp")
	for _, huge := range []bool{true, false} {
		base := Options{
			Workload: w, HugePages: huge, EmbedPTB: true, Audit: true,
			ScaleDivisor: 32, FootprintFloor: 96 << 20,
			WarmupAccesses: 20_000, Window: 10 * engine.Microsecond, Seed: 3,
		}
		rec := base
		rec.Design, rec.Setting = DesignDyLeCT, SettingLow
		recRes, img := record(t, rec)
		if live := Run(rec); !reflect.DeepEqual(recRes, live) {
			t.Fatalf("huge=%v: recording cell diverged from live RunE", huge)
		}
		// The image stays live while the group restores, so its size is
		// peak memory: 4 bytes a cache way plus the call log.
		if n := img.Bytes(); n <= 0 || n > 1<<20 {
			t.Fatalf("huge=%v: image is %d bytes, want compact (at most 1 MiB)", huge, n)
		}
		var wg sync.WaitGroup
		cells := []struct {
			d Design
			s Setting
		}{
			{DesignNoComp, SettingNone}, {DesignTMCC, SettingHigh}, {DesignTMCC, SettingNone},
			{DesignDyLeCT, SettingHigh}, {DesignDyLeCT, SettingLow}, {DesignNaive, SettingHigh},
		}
		for _, c := range cells {
			o := base
			o.Design, o.Setting = c.d, c.s
			wg.Add(1)
			go func() {
				defer wg.Done()
				obsLive := metrics.New(metrics.Config{Samples: 4, Trace: true})
				obsShared := metrics.New(metrics.Config{Samples: 4, Trace: true})
				live, shared := o, o
				live.Obs, shared.Obs = obsLive, obsShared
				want, got := Run(live), runShared(t, shared, img)
				want.Opts.Obs, got.Opts.Obs = nil, nil
				if !reflect.DeepEqual(got, want) {
					t.Errorf("huge=%v %s/%s: restored result differs from live\nlive:     %+v\nrestored: %+v", huge, c.d, c.s, want, got)
				}
				if !reflect.DeepEqual(obsShared.Data(), obsLive.Data()) {
					t.Errorf("huge=%v %s/%s: restored observability data differs from live", huge, c.d, c.s)
				}
			}()
		}
		wg.Wait()
	}
}

// TestRestoreRejectsForeignImage: an image only restores into a cell of its
// own warm key.
func TestRestoreRejectsForeignImage(t *testing.T) {
	w, _ := trace.ByName("omnetpp")
	o := Options{Workload: w, Setting: SettingNone, HugePages: true, ScaleDivisor: 32, WarmupAccesses: 1000, Window: engine.Microsecond}
	_, img := record(t, o)
	o.Seed++
	m, err := Build(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(img); err == nil {
		t.Fatal("restored an image recorded under another seed")
	}
}

// TestReplayAllocations bounds the host allocations of replaying a recorded
// warm log into TMCC and DyLeCT translators. Functional CTE fetches and
// expansions finish inline without closures or in-flight marks, so what
// remains is each chunk frame's resident list, allocated on first use.
func TestReplayAllocations(t *testing.T) {
	for _, name := range []string{"omnetpp", "canneal"} {
		w, _ := trace.ByName(name)
		base := Options{
			Workload: w, HugePages: true, ScaleDivisor: 32, FootprintFloor: 96 << 20,
			WarmupAccesses: 20_000, Window: engine.Microsecond, Design: DesignNoComp, Setting: SettingNone,
		}
		_, img := record(t, base)
		calls := 0
		for _, b := range img.log {
			if b < 0x80 { // the last byte of each varint
				calls++
			}
		}
		for _, c := range []struct {
			d Design
			s Setting
		}{{DesignTMCC, SettingHigh}, {DesignDyLeCT, SettingHigh}, {DesignDyLeCT, SettingLow}} {
			o := base
			o.Design, o.Setting = c.d, c.s
			m, err := Build(o)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m.s.replay(img.log)
			runtime.ReadMemStats(&after)
			perCall := float64(after.Mallocs-before.Mallocs) / float64(calls)
			t.Logf("%s %s/%s: %d calls, %.4f mallocs per call", name, c.d, c.s, calls, perCall)
			if perCall > 0.05 {
				t.Errorf("%s %s/%s: replay made %.3f mallocs per logged call, want at most 0.05", name, c.d, c.s, perCall)
			}
		}
	}
}
