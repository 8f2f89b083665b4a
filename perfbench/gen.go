package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"locsched/internal/workload"
)

// Seeded input generators. The benchmark's seed only ever chooses inputs;
// the program sees the generated mixes and request streams, never the
// seed itself.

// Input families: each draws from its own generator of the seed, so the
// figures rungs, the sweep mix and the serve streams are independent.
const (
	famRung     = 10 // + rung index
	famSweepMix = 20
	famServePop = 30
	famServe    = 31
	famDirect   = 32
)

// newRand returns the deterministic generator of one input family for
// draw number draw of the seed. Each pass of a run takes the next draw.
func newRand(seed int64, draw int, family uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(draw)<<8|family))
}

// drawMix returns the application names of an n-task mix. Seed 0 gives
// workload.BuildMany's cycling order (the paper's six for n = 6) on
// every draw. Any other seed shuffles that cycled list, so a mix keeps
// the same multiset of applications, and with it the same footprint and
// roughly the same cost, while task order, process numbering and array
// packing change from draw to draw.
func drawMix(seed int64, draw int, family uint64, n int) []string {
	names := workload.Names()
	out := make([]string, n)
	for i := range out {
		out[i] = names[i%len(names)]
	}
	if seed != 0 {
		r := newRand(seed, draw, family)
		r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// buildMix builds the named tasks with task IDs 0..n-1, exactly as
// workload.BuildMany does for its cycling order.
func buildMix(names []string, p workload.Params) ([]*workload.App, error) {
	apps := make([]*workload.App, len(names))
	for i, name := range names {
		a, err := workload.Build(name, i, p)
		if err != nil {
			return nil, fmt.Errorf("building task %d (%s): %w", i, name, err)
		}
		apps[i] = a
	}
	return apps, nil
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct {
	cum []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	total := 0.0
	for i := range z.cum {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	i := sort.SearchFloat64s(z.cum, r.Float64())
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}

// serveRequest is one request of the serve stream: an endpoint, its JSON
// body, and the fields the body was made from. The body names the
// request's identity for the byte-equality check.
type serveRequest struct {
	Endpoint string
	Body     string
	Workload serveWorkload
	Policy   string // /v1/run only
	CacheKB  int64  // /v1/run only
}

// serveWorkload is one workload of the serve key space: a Table 1
// application in isolation (App) or a generated mix of Mix tasks.
type serveWorkload struct {
	App string
	Mix int
}

func (w serveWorkload) json() string {
	if w.App != "" {
		return fmt.Sprintf(`{"app":%q}`, w.App)
	}
	return fmt.Sprintf(`{"mix":%d}`, w.Mix)
}

// serveWorkloads is the serve key space's workload axis: the six Table 1
// applications in isolation plus the generated mixes of 2 to 6 tasks.
func serveWorkloads() []serveWorkload {
	var out []serveWorkload
	for _, name := range workload.Names() {
		out = append(out, serveWorkload{App: name})
	}
	for n := 2; n <= 6; n++ {
		out = append(out, serveWorkload{Mix: n})
	}
	return out
}

var (
	servePolicies = []string{"rs", "rrs", "arr", "ls", "lsm"}
	serveCacheKB  = []int64{4, 8, 16}
)

// Stream shape: the Zipf exponent over each key space and the share of
// /v1/analysis requests mixed into the /v1/run stream.
const (
	zipfExponent  = 1.0
	analysisShare = 0.05
)

// serveStream returns the request stream of one epoch, n requests long
// (n at least the key count): every key of the /v1/run and /v1/analysis
// key spaces once, so every epoch executes the same cold set whatever
// the seed, and the rest Zipf distributed over each key space, with a
// small share of /v1/analysis requests. The seed permutes which keys are
// popular; the seed and the epoch together draw the repeats and order
// the whole stream, so a run's epochs replay different interleavings of
// the same work.
func serveStream(seed int64, epoch, n int) []serveRequest {
	var runs, analyses []serveRequest
	for _, wl := range serveWorkloads() {
		for _, pol := range servePolicies {
			for _, kb := range serveCacheKB {
				body := fmt.Sprintf(`{"workload":%s,"policy":%q,"config":{"cache_kb":%d}}`, wl.json(), pol, kb)
				runs = append(runs, serveRequest{Endpoint: "/v1/run", Body: body, Workload: wl, Policy: pol, CacheKB: kb})
			}
		}
		body := fmt.Sprintf(`{"workload":%s}`, wl.json())
		analyses = append(analyses, serveRequest{Endpoint: "/v1/analysis", Body: body, Workload: wl})
	}
	pop := newRand(seed, 0, famServePop)
	pop.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	pop.Shuffle(len(analyses), func(i, j int) { analyses[i], analyses[j] = analyses[j], analyses[i] })
	r := newRand(seed, epoch, famServe)
	out := append(append([]serveRequest(nil), runs...), analyses...)
	zr, za := newZipf(len(runs), zipfExponent), newZipf(len(analyses), zipfExponent)
	for len(out) < n {
		if r.Float64() < analysisShare {
			out = append(out, analyses[za.draw(r)])
		} else {
			out = append(out, runs[zr.draw(r)])
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
