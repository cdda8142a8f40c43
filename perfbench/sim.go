package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/adapt"
	"repro/internal/admit"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/session"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workload"
)

// simWorkload is a single-threaded open-system workload over a panel
// of 16-node neighbourhoods, with helper churn, DegradeToFit repair and
// Yield admission: a pass simulates each neighbourhood in turn, on its
// own engine seeded from the run seed.
type simWorkload struct {
	rate            float64 // Poisson arrivals, sessions per simulated second
	tasks           int     // tasks per session
	hold            float64 // mean holding time, simulated seconds
	horizon, warmup float64 // simulated seconds per neighbourhood
	panel           int     // neighbourhoods in the panel
}

// adaptChurn is the sim-adapt-churn workload.
var adaptChurn = simWorkload{rate: 1, tasks: 2, hold: 30, horizon: 600, warmup: 60, panel: 16}

// Churn in sim-adapt-churn: the E22 rate, 360 helper leaves an hour
// with a 30 s mean downtime.
const (
	churnPerHour  = 360.0
	churnDownMean = 30.0
)

func (w simWorkload) city() workload.CityScenario {
	return workload.CityScenario{Rows: 1, Cols: 1, NodesPerShard: 16, TotalRate: w.rate, Profile: workload.CityUniform}
}

func (w simWorkload) template() workload.SessionTemplate {
	return workload.SessionTemplate{Name: "bench", Tasks: w.tasks, Scale: 1.0}
}

// organizer is the negotiation config: with adaptation on, the adapt
// engine owns churn repair, so the organizer's Monitor and Reconfigure
// are off (DESIGN.md §10).
func (w simWorkload) organizer() core.OrganizerConfig {
	ocfg := core.DefaultOrganizerConfig
	ocfg.Monitor = false
	ocfg.Reconfigure = false
	return ocfg
}

func (w simWorkload) adaptConfig() adapt.Config { return adapt.Config{OnChurn: adapt.DegradeToFit} }

// panelSeed is the placement and device-mix seed of neighbourhood i.
// The neighbourhoods are a fixed panel, like tcp-loopback's interop
// grid: which devices one seed happens to place within reach of the
// organizer moves admission, QoS distance and host cost by a third or
// more per neighbourhood, far more than a run-to-run bound can absorb.
// The run seed drives everything stochastic within them.
func panelSeed(i int) int64 { return shardSeed(0, i) }

// shardSeed derives stream i's seed from seed with the splitmix64
// finalizer, so consecutive seeds share no stream.
func shardSeed(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// shardOpts selects the optional observers of one neighbourhood run.
// The zero value is the untraced run the end-to-end metrics come from.
type shardOpts struct {
	rec       *trace.Recorder // session.Config.Trace
	memEvery  int             // >0: sample the live heap every memEvery arrivals
	calibrate bool            // time a reference slice after every neighbourhood
}

// shardRun is one simulated neighbourhood: its stats, the arrivals the
// benchmark's NewService wrapper counted (warm-up included), host costs of
// Run, and the layer counters read from public state afterwards.
type shardRun struct {
	stats              session.Stats
	arrivals           int
	build, wall        time.Duration
	allocBytes, allocs uint64
	medium             radio.Stats
	cfps, proposals    int
	accepts            int
	pendingSum         int
	peakHeap           uint64
}

// runShard builds panel neighbourhood i, runs it to the horizon with
// the engine seeded by seed, and checks its invariants. An error is a
// failed operation.
func (w simWorkload) runShard(i int, seed int64, opts shardOpts) (*shardRun, error) {
	city := w.city()
	t0 := time.Now()
	sc, err := workload.Build(city.ScenarioConfig(panelSeed(i)))
	r := &shardRun{build: time.Since(t0)}
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	cl := sc.Cluster
	tmpl := w.template()
	var ms runtime.MemStats
	newService := func(seq int) *task.Service {
		r.arrivals++
		r.pendingSum += cl.Eng.Pending()
		if opts.memEvery > 0 && r.arrivals%opts.memEvery == 0 {
			r.peakHeap = max(r.peakHeap, liveHeap(&ms))
		}
		return tmpl.Instantiate(seq)
	}
	ac := w.adaptConfig()
	cfg := session.Config{
		Arrivals:   city.ArrivalProcess(0),
		NewService: newService,
		HoldMean:   w.hold,
		Horizon:    w.horizon,
		Warmup:     w.warmup,
		Organizer:  w.organizer(),
		Trace:      opts.rec,
		Churn:      &session.ChurnConfig{Leave: arrival.Poisson{Rate: churnPerHour / 3600}, DownMean: churnDownMean},
		Adapt:      &ac,
		Admission:  &admit.Config{Policy: admit.Yield},
	}
	eng, err := session.New(cl, cfg, seed)
	if err != nil {
		return nil, fmt.Errorf("session.New: %w", err)
	}
	// Every Run starts from a collected heap, so its own allocations
	// alone decide when its collections fall.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	allocBytes, allocs := ms.TotalAlloc, ms.Mallocs
	t0 = time.Now()
	st, err := eng.Run()
	r.wall = time.Since(t0)
	runtime.ReadMemStats(&ms)
	r.allocBytes, r.allocs = ms.TotalAlloc-allocBytes, ms.Mallocs-allocs
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	if opts.memEvery > 0 {
		r.peakHeap = max(r.peakHeap, liveHeap(&ms))
	}
	r.stats = *st // a copy: the pointer would keep the whole engine reachable
	r.medium = cl.Medium.Stats
	if st.Admitted+st.Blocked != st.Arrivals {
		return nil, fmt.Errorf("admitted %d + blocked %d != arrivals %d", st.Admitted, st.Blocked, st.Arrivals)
	}
	if st.Arrivals > r.arrivals {
		return nil, fmt.Errorf("engine counted %d arrivals, NewService saw %d", st.Arrivals, r.arrivals)
	}
	for _, id := range cl.Nodes() {
		n := cl.Node(id)
		r.cfps += n.Provider.CFPs
		r.proposals += n.Provider.Proposals
		r.accepts += n.Provider.Accepts
	}
	// A node still off the air at the horizon missed the releases sent
	// while it was down; reboot it as the churn stream would have, after
	// which its ledger must be exact like every other.
	for _, id := range cl.Nodes() {
		if cl.Medium.Down(id) {
			cl.RebootNode(id)
		}
		if n := cl.Node(id); n.Res.Available() != n.Res.Capacity() {
			return nil, fmt.Errorf("node %d ledger not empty after drain: available %v of %v", id, n.Res.Available(), n.Res.Capacity())
		}
	}
	return r, nil
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap(ms *runtime.MemStats) uint64 {
	runtime.GC()
	runtime.ReadMemStats(ms)
	return ms.HeapAlloc
}

// episode is one pass over the first neighbourhoods of the panel.
type episode struct {
	shards []*shardRun   // by panel index; nil where the run failed
	city   session.Stats // the shards folded with Stats.Merge
	slices []float64     // reference slice times, seconds (calib.go)
}

func (e *episode) arrivals() (n int) {
	for _, s := range e.shards {
		if s != nil {
			n += s.arrivals
		}
	}
	return n
}

// runEpisode simulates the first n panel neighbourhoods once.
func (w simWorkload) runEpisode(seed int64, n int, opts shardOpts, out *outcome) *episode {
	ep := &episode{shards: make([]*shardRun, n)}
	runtime.GC()
	for i := range ep.shards {
		if r := w.runOne(i, seed, opts, out); r != nil {
			ep.shards[i] = r
			ep.city.Merge(&r.stats)
		}
		if opts.calibrate {
			ep.slices = append(ep.slices, calSlice().Seconds())
		}
	}
	return ep
}

// runOne simulates panel neighbourhood i. One that errors counts as a
// failed operation of out and returns nil.
func (w simWorkload) runOne(i int, seed int64, opts shardOpts, out *outcome) *shardRun {
	s := shardSeed(seed, i)
	out.attempted++
	r, err := w.runShard(i, s, opts)
	if err != nil {
		out.fail("neighbourhood %d (seed %d): %v", i, s, err)
		return nil
	}
	return r
}

// checkSame counts a failed operation for every neighbourhood of ep
// whose session.Stats differ from ref's: every pass of a seed must
// reproduce the first untraced one bit for bit.
func checkSame(ref, ep *episode, what string, out *outcome) {
	for i, r := range ep.shards {
		checkShard(ref, i, r, what, out)
	}
}

func checkShard(ref *episode, i int, r *shardRun, what string, out *outcome) {
	if r == nil || ref.shards[i] == nil {
		return
	}
	if a, b := fmt.Sprintf("%+v", ref.shards[i].stats), fmt.Sprintf("%+v", r.stats); a != b {
		out.attempted++
		out.fail("%s, neighbourhood %d: session.Stats differ from the first untraced pass:\n  %s\n  %s", what, i, a, b)
	}
}

// medianWall sums, over the neighbourhoods, the median across passes of
// each one's Run wall time. Host speed drifts by tens of percent over
// seconds on a shared machine; a per-neighbourhood median drops the
// passes a slow spell hit.
func medianWall(passes []*episode) time.Duration {
	var total time.Duration
	for i := range passes[0].shards {
		var walls []float64
		for _, p := range passes {
			if r := p.shards[i]; r != nil {
				walls = append(walls, float64(r.wall))
			}
		}
		if len(walls) > 0 {
			total += time.Duration(median(walls))
		}
	}
	return total
}

// memPanel is how many neighbourhoods the heap-sampling pass runs.
const memPanel = 8

func runSim(w simWorkload, rc runConfig) (*outcome, error) {
	// One P: the engine is single-threaded, and its collector then
	// shares the engine's CPU instead of racing it on a second one that
	// a neighbour on the host may hold.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if rc.trace {
		return runSimTraced(w, rc)
	}
	out := &outcome{metrics: map[string]float64{}}
	start := time.Now()
	var passes []*episode
	var builds []float64

	// Formation latency: wall time from a session's arrival to its
	// admission verdict while the engine simulates it among everything
	// else in flight. A latency pass runs the whole panel with the trace
	// hook feeding a sink that stamps the two events, and gives a p50 and
	// a p99 over all its formations. One follows every timed pass; the
	// metrics are the medians over the latency passes.
	var p50s, p99s []float64
	var slices []float64 // reference slice times of the whole run
	latencyPass := func() error {
		lat := newLatencySink()
		ep := w.runEpisode(rc.seed, w.panel, shardOpts{rec: trace.NewRecorder(lat), calibrate: true}, out)
		checkSame(passes[0], ep, "latency pass", out)
		slices = append(slices, ep.slices...)
		p50, err := percentile(lat.ms, 50)
		if err != nil {
			return err
		}
		p99, err := percentile(lat.ms, 99)
		if err != nil {
			return err
		}
		p50s, p99s = append(p50s, p50), append(p99s, p99)
		return nil
	}

	// Timed passes, untraced, alternate with latency passes: at least
	// three of each.
	for len(passes) < 3 || time.Since(start).Seconds() < 0.9*rc.seconds {
		ep := w.runEpisode(rc.seed, w.panel, shardOpts{calibrate: true}, out)
		if ep.arrivals() == 0 {
			return nil, fmt.Errorf("every neighbourhood failed: %v", out.failures)
		}
		if len(passes) > 0 {
			checkSame(passes[0], ep, fmt.Sprintf("pass %d", len(passes)), out)
		}
		passes = append(passes, ep)
		slices = append(slices, ep.slices...)
		for _, s := range ep.shards {
			if s != nil {
				builds = append(builds, s.build.Seconds())
			}
		}
		if err := latencyPass(); err != nil {
			return nil, fmt.Errorf("formation latency: %w", err)
		}
	}
	ref := passes[0]
	fmt.Fprintf(rc.log, "# %d timed and %d latency passes of %d neighbourhoods, %d arrivals each\n",
		len(passes), len(p50s), w.panel, ref.arrivals())

	// The peak live heap: a pass that collects and samples the heap
	// every 50 arrivals and once more when Run returns. The metric is
	// the median over the neighbourhoods of each one's peak.
	mem := w.runEpisode(rc.seed, min(memPanel, w.panel), shardOpts{memEvery: 50}, out)
	checkSame(ref, mem, "heap-sampling pass", out)
	var peaks []float64
	for _, s := range mem.shards {
		if s != nil {
			peaks = append(peaks, float64(s.peakHeap))
		}
	}

	// The host-time metrics in reference time (calib.go).
	k := speedScale(slices)
	sps := float64(ref.arrivals()) / medianWall(passes).Seconds()
	fmt.Fprintf(rc.log, "# host time: %.6g sessions/s, formation p50 %.6g ms, p99 %.6g ms, setup %.6g s; median of %d reference slices %.6g ms\n",
		sps, median(p50s), median(p99s), median(builds), len(slices), 1000*median(slices))

	m := out.metrics
	m["setup_s"] = median(builds) / k
	m["sessions_per_s"] = sps * k
	m["mem_peak_mb"] = median(peaks) / (1 << 20)
	m["admission_ratio"] = ref.city.AdmissionRatio()
	m["qos_distance"] = ref.city.DistanceAvg
	m["survival_ratio"] = ref.city.SurvivalRatio()
	m["formation_p50_ms"] = median(p50s) / k
	m["formation_p99_ms"] = median(p99s) / k
	return out, nil
}

// latencySink pairs each session's "arrival" trace event with its first
// admission verdict and keeps the wall time between them, milliseconds.
type latencySink struct {
	arrived map[string]time.Time
	ms      []float64
}

func newLatencySink() *latencySink { return &latencySink{arrived: map[string]time.Time{}} }

// Emit implements trace.Tracer.
func (l *latencySink) Emit(e trace.Event) {
	switch e.Kind {
	case "arrival":
		l.arrived[e.Detail] = time.Now()
	case "admit", "block", "queue.admit", "yield.admit", "queue.expire":
		if t, ok := l.arrived[e.Detail]; ok {
			l.ms = append(l.ms, float64(time.Since(t).Nanoseconds())/1e6)
			delete(l.arrived, e.Detail)
		}
	}
}

// runSimTraced produces the per-layer metrics: exact counts and host
// costs from untraced passes, event counts and the tracing overhead
// from traced passes of the same seed (alternated with the untraced
// ones), and spans timed around calls into each layer.
func runSimTraced(w simWorkload, rc runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	start := time.Now()
	var plain, traced []*episode
	var allocBytes, allocs []float64
	var counts *trace.Counts
	for len(plain) < 2 || time.Since(start).Seconds() < rc.seconds/2 {
		ep := w.runEpisode(rc.seed, w.panel, shardOpts{}, out)
		if ep.arrivals() == 0 {
			return nil, fmt.Errorf("every neighbourhood failed: %v", out.failures)
		}
		if len(plain) > 0 {
			checkSame(plain[0], ep, "untraced pass", out)
		}
		plain = append(plain, ep)
		var bytes, n uint64
		for _, s := range ep.shards {
			if s != nil {
				bytes += s.allocBytes
				n += s.allocs
			}
		}
		allocBytes = append(allocBytes, float64(bytes)/float64(ep.arrivals()))
		allocs = append(allocs, float64(n)/float64(ep.arrivals()))

		counts = trace.NewCounts()
		tr := w.runEpisode(rc.seed, w.panel, shardOpts{rec: trace.NewRecorder(counts)}, out)
		checkSame(plain[0], tr, "traced pass", out)
		traced = append(traced, tr)
	}
	ref := plain[0]
	if got, want := counts.Get("arrival"), uint64(ref.arrivals()); got != want {
		out.attempted++
		out.fail("trace counted %d arrivals, NewService saw %d", got, want)
	}
	fmt.Fprintf(rc.log, "# %d untraced and %d traced passes of %d neighbourhoods\n", len(plain), len(traced), w.panel)

	var arrivals, events, deliveries, bytes, cfps, props, accepts, pending, unicasts, broadcasts float64
	for _, s := range ref.shards {
		if s == nil {
			continue
		}
		unicasts += float64(s.medium.Unicasts)
		broadcasts += float64(s.medium.Broadcasts)
		arrivals += float64(s.arrivals)
		events += float64(s.stats.SimEvents)
		deliveries += float64(s.medium.Deliveries)
		bytes += float64(s.medium.Bytes)
		cfps += float64(s.cfps)
		props += float64(s.proposals)
		accepts += float64(s.accepts)
		pending += float64(s.pendingSum)
	}
	a, ad := ref.city.Adapt, ref.city.Admit
	post := float64(ref.city.Arrivals) // the adapt and admit counters start at warm-up
	m := out.metrics
	m["sim.events_per_session"] = events / arrivals
	m["sim.ns_per_event"] = float64(medianWall(plain).Nanoseconds()) / events
	m["radio.deliveries_per_session"] = deliveries / arrivals
	m["radio.bytes_per_session"] = bytes / arrivals
	m["core.cfps_per_session"] = cfps / arrivals
	m["core.proposals_per_cfp"] = ratio(props, cfps)
	m["core.accept_ratio"] = ratio(accepts, props)
	m["adapt.actions_per_session"] = ratio(float64(a.Degrades+a.Upgrades+a.Repairs), post)
	m["adapt.kills_per_session"] = ratio(float64(a.Kills), post)
	// YieldSteps are the steps admitted yields kept, YieldReverted those
	// failed yields rolled back: together, every step bought.
	bought := float64(ad.YieldSteps + ad.YieldReverted)
	m["admit.yield_steps_per_attempt"] = ratio(bought, float64(ad.YieldAttempts))
	m["admit.yield_revert_ratio"] = ratio(float64(ad.YieldReverted), bought)
	m["session.alloc_bytes_per_session"] = median(allocBytes)
	m["session.allocs_per_session"] = median(allocs)
	m["net.frames_per_formation"] = 0
	m["net.overflows"] = 0
	m["net.send_errors"] = 0
	m["trace.events_per_session"] = float64(counts.Total()) / arrivals
	m["trace.overhead_ratio"] = medianWall(traced).Seconds()/medianWall(plain).Seconds() - 1

	in, err := w.spanInput(rc.seed)
	if err != nil {
		return nil, err
	}
	in.depth = int(math.Round(pending / arrivals))
	in.unicastShare = ratio(unicasts, unicasts+broadcasts)
	in.live = int(math.Round(ref.city.LiveAvg / float64(len(ref.shards))))
	if err := measureSpans(in, m); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	return out, nil
}

// spanInput describes the workload's first panel neighbourhood for the
// span harness, whose own draws follow seed.
func (w simWorkload) spanInput(seed int64) (*spanInput, error) {
	scfg := w.city().ScenarioConfig(panelSeed(0))
	probe, err := workload.Build(scfg)
	if err != nil {
		return nil, err
	}
	in := &spanInput{
		seed: seed,
		build: func() (*core.Cluster, error) {
			sc, err := workload.Build(scfg)
			if err != nil {
				return nil, err
			}
			return sc.Cluster, nil
		},
		service:   func(seq int) *task.Service { return w.template().Instantiate(seq) },
		organizer: w.organizer(),
		adapt:     w.adaptConfig(),
	}
	for _, id := range probe.Cluster.Nodes() {
		pos, _ := probe.Cluster.Medium.PosOf(id)
		p := probe.Profiles[id]
		in.links = append(in.links, nodeLink{id: id, link: radio.Link{Pos: pos, RangeM: p.RangeM, Bitrate: p.Bitrate}})
	}
	return in, nil
}
