// Package trace synthesizes the memory access streams of the paper's
// evaluation workloads: nine GraphBIG graph kernels, SPEC CPU2017 mcf and
// omnetpp, and PARSEC canneal. Real inputs are tens of gigabytes and not
// redistributable, so each workload is modeled as a deterministic mixture of
// access-pattern components (sequential scans, Zipf-skewed gathers,
// dependent pointer chases) whose parameters capture what the paper's
// results depend on: footprint size relative to translation reach, hot-set
// skew, spatial locality, memory intensity, dependence (memory-level
// parallelism), and data compressibility.
package trace

import (
	"math/rand"
	"reflect"
)

// Access is one memory instruction in the synthesized stream.
type Access struct {
	// VA is the virtual byte address.
	VA uint64
	// Write marks stores.
	Write bool
	// NonMemInsts counts the non-memory instructions retired before this
	// access (controls memory intensity).
	NonMemInsts uint8
	// Dependent marks loads the next instructions depend on (pointer
	// chase); the core cannot overlap past them.
	Dependent bool
	// Stream identifies the access stream (stands in for the PC) for
	// stride prefetching.
	Stream uint64
}

// Generator produces an infinite access stream.
type Generator interface {
	Next(a *Access)
}

// component is a single access-pattern primitive inside a mixture. clone
// returns an independent copy in the same state whose random draws come
// from rng.
type component interface {
	next(rng *rand.Rand, a *Access)
	clone(rng *rand.Rand) component
}

// region is a byte range [base, base+size).
type region struct {
	base uint64
	size uint64
}

// scan streams sequentially through its region with a fixed stride,
// wrapping at the end — edge-list traversal, array sweeps.
type scan struct {
	reg      region
	stride   uint64
	pos      uint64
	writes   float64
	nonMem   uint8
	streamID uint64
}

func (s *scan) next(rng *rand.Rand, a *Access) {
	a.VA = s.reg.base + s.pos
	s.pos += s.stride
	if s.pos >= s.reg.size {
		s.pos = 0
	}
	a.Write = rng.Float64() < s.writes
	a.NonMemInsts = s.nonMem
	a.Dependent = false
	a.Stream = s.streamID
}

func (s *scan) clone(*rand.Rand) component {
	c := *s
	return &c
}

// zipfGather touches a Zipf-distributed page within its region, with a
// configurable number of spatially-local follow-on accesses per touch —
// vertex-property gathers, hash lookups.
type zipfGather struct {
	reg       region
	zipf      *rand.Zipf
	skew      float64
	nPages    uint64
	burst     int // accesses per page touch (spatial locality)
	burstLeft int
	curPage   uint64
	writes    float64
	nonMem    uint8
	dependent float64
	streamID  uint64
}

// clusterPages is the spatial-clustering granularity of hot data: hot Zipf
// ranks map into 64-page (256KB) clusters scattered across the region, the
// way hot structures occupy whole allocations in real heaps. This is what
// gives CTE blocks (8 pages each) their spatial reuse.
const clusterPages = 64

func newZipfGather(rng *rand.Rand, reg region, skew float64, burst int, writes float64,
	nonMem uint8, dependent float64, stream uint64) *zipfGather {
	nPages := reg.size / 4096
	if nPages == 0 {
		nPages = 1
	}
	return &zipfGather{
		reg:       reg,
		zipf:      rand.NewZipf(rng, skew, 1, nPages-1),
		skew:      skew,
		nPages:    nPages,
		burst:     burst,
		writes:    writes,
		nonMem:    nonMem,
		dependent: dependent,
		streamID:  stream,
	}
}

// rankToPage maps a Zipf rank to a page, scattering hot data in
// clusterPages-sized clusters across the region.
func (z *zipfGather) rankToPage(rank uint64) uint64 {
	nClusters := z.nPages / clusterPages
	if nClusters == 0 {
		return rank % z.nPages
	}
	cluster := rank / clusterPages
	within := rank % clusterPages
	page := (cluster*0x9E3779B97F4A7C15%nClusters)*clusterPages + within
	if page >= z.nPages {
		page = rank % z.nPages
	}
	return page
}

func (z *zipfGather) next(rng *rand.Rand, a *Access) {
	if z.burstLeft == 0 {
		z.curPage = z.rankToPage(z.zipf.Uint64())
		z.burstLeft = z.burst
	}
	z.burstLeft--
	off := rng.Uint64() % 4096 &^ 7
	a.VA = z.reg.base + z.curPage*4096 + off
	a.Write = rng.Float64() < z.writes
	a.NonMemInsts = z.nonMem
	a.Dependent = rng.Float64() < z.dependent
	a.Stream = z.streamID
}

// clone rebuilds the Zipf sampler over rng: rand.Zipf holds only constants
// derived from its parameters plus its source, so the rebuilt sampler draws
// exactly as the original would from the same source state.
func (z *zipfGather) clone(rng *rand.Rand) component {
	c := *z
	c.zipf = rand.NewZipf(rng, z.skew, 1, z.nPages-1)
	return &c
}

// chase models dependent pointer chasing: every access is a load whose
// address the next access depends on, hopping between Zipf-skewed pages.
type chase struct {
	gather *zipfGather
}

func (c *chase) next(rng *rand.Rand, a *Access) {
	c.gather.next(rng, a)
	a.Dependent = true
	a.Write = false
}

func (c *chase) clone(rng *rand.Rand) component {
	return &chase{gather: c.gather.clone(rng).(*zipfGather)}
}

// Mix is a weighted mixture of components; the standard Generator
// implementation.
type Mix struct {
	src     rand.Source
	rng     *rand.Rand
	comps   []component
	weights []float64
	total   float64
}

// NewMix builds a mixture generator with the given RNG seed.
func NewMix(seed int64) *Mix {
	src := rand.NewSource(seed)
	return &Mix{src: src, rng: rand.New(src)}
}

func (m *Mix) add(w float64, c component) {
	m.comps = append(m.comps, c)
	m.weights = append(m.weights, w)
	m.total += w
}

// Next produces the next access.
func (m *Mix) Next(a *Access) {
	r := m.rng.Float64() * m.total
	for i, w := range m.weights {
		if r < w || i == len(m.comps)-1 {
			m.comps[i].next(m.rng, a)
			return
		}
		r -= w
	}
}

// Clone returns an independent generator in m's exact state: its stream
// continues precisely where m's would, without replaying any Next. Clone only
// reads m, so many goroutines may clone one frozen Mix concurrently.
func (m *Mix) Clone() *Mix {
	src := cloneSource(m.src)
	c := &Mix{src: src, rng: rand.New(src), weights: m.weights, total: m.total}
	c.comps = make([]component, len(m.comps))
	for i, comp := range m.comps {
		c.comps[i] = comp.clone(c.rng)
	}
	return c
}

// cloneSource copies a math/rand source by value. rand.NewSource's state is a
// flat struct of integers (two indices and the feedback register), so a value
// copy is an exact, independent source; TestMixCloneIsExact guards that
// assumption against a future library change. Copying is ~5 KB per source,
// against replaying every draw since seeding.
func cloneSource(src rand.Source) rand.Source {
	v := reflect.ValueOf(src).Elem()
	c := reflect.New(v.Type())
	c.Elem().Set(v)
	return c.Interface().(rand.Source)
}
