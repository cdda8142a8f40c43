package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	qnet "repro/internal/net"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tcp-loopback: the E28 shape (six interop nodes, the 3-task interop
// service) as in-process fleets on 127.0.0.1, each driven as a closed
// loop by one organizer: submit, wait for the formation, dissolve, wait
// for every ledger to drain, repeat.
//
// The proposal and ack windows are wall-clock timers, 0.25 virtual s
// each times tcpTimeScale. A shared 2-CPU host stalls a process for
// 10 ms a few times a minute and for 25 ms about once a minute (a
// 1 ms sleep loop, 90 s, idle VM). A message the stall delays past its
// window makes the organizer renegotiate, and the formation then
// differs from the simulator's and fails its check. At E28's 0.05 the
// windows are 12.5 ms, and 0 to 2 of 1010 formations per run failed so.
// At 0.4 they are 100 ms. The loop is mostly waiting on those timers,
// so tcpFleets fleets run side by side, one client each, to reach the
// formations a p99 needs within the run.
const (
	tcpNodes      = 6
	tcpTasks      = 3
	tcpTimeScale  = 0.4                    // wall seconds per virtual second
	tcpFleets     = 6                      // independent fleets, one closed-loop client each
	tcpSetupEvery = 500 * time.Millisecond // how often a throwaway fleet times set-up
	tcpWait       = 5 * time.Second
	tcpMaxLoop    = 120 * time.Second // keeps a run that stalls under the 180 s limit
)

// tcpScales are the service demand scales formations cycle through, in
// an order the seed shuffles afresh for every len(tcpScales) formations.
// At 2.5 and 3 the interop neighbourhood can no longer serve every task
// at the preferred level, so providers degrade and distances are
// nonzero; at 4 it cannot serve the service at all.
var tcpScales = []float64{0.5, 1, 2, 2.5, 3}

// fleet is the in-process interop fabric: daemons 1..tcpNodes-1 on
// ephemeral loopback ports and the dial-only organizer node 0.
type fleet struct {
	org   *qnet.Node
	nodes []*qnet.Node // org first
}

func (f *fleet) close() {
	for _, n := range f.nodes {
		n.Close()
	}
}

func startFleet(tr trace.Tracer) (*fleet, error) {
	f := &fleet{}
	cfg := func(id radio.NodeID, listen string) qnet.NodeConfig {
		ec := qnet.InteropEndpointConfig(id, tcpNodes, listen, tcpTimeScale)
		ec.Trace = tr
		pc := core.DefaultProviderConfig
		pc.Trace = tr
		return qnet.NodeConfig{Endpoint: ec, Provider: pc, Retry: proto.DefaultRetryConfig}
	}
	f.org = qnet.NewNode(cfg(0, ""))
	f.nodes = append(f.nodes, f.org)
	for i := 1; i < tcpNodes; i++ {
		d := qnet.NewNode(cfg(radio.NodeID(i), "127.0.0.1:0"))
		f.nodes = append(f.nodes, d)
		if err := d.Start(); err != nil {
			f.close()
			return nil, err
		}
	}
	if err := f.org.Start(); err != nil {
		f.close()
		return nil, err
	}
	for i := 1; i < tcpNodes; i++ {
		if err := f.org.Endpoint.Dial(radio.NodeID(i), f.nodes[i].Endpoint.Addr()); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) ledgersEmpty() bool {
	for _, n := range f.nodes {
		if n.Res.Available() != n.Res.Capacity() {
			return false
		}
	}
	return true
}

// tcpLoop is the record of the closed loops.
type tcpLoop struct {
	latMs      []float64 // Submit to onFormed, wall milliseconds
	complete   int
	clean      int // complete formations whose ledgers all drained
	distSum    float64
	distN      int
	wall       time.Duration
	peakHeap   uint64
	formations int
}

func (l *tcpLoop) merge(o *tcpLoop) {
	l.latMs = append(l.latMs, o.latMs...)
	l.complete += o.complete
	l.clean += o.clean
	l.distSum += o.distSum
	l.distN += o.distN
	l.formations += o.formations
}

// runLoops runs one closed loop per fleet, side by side, until seconds
// have passed and at least minN formations are done in all (or exactly
// n formations when n > 0), giving up after tcpMaxLoop. Each fleet's
// service scales are dealt by its own generator, seeded from seed; every
// assignment must match the simulator's. With memEvery > 0 the live
// heap is sampled every memEvery of wall time and at the end.
func runLoops(fleets []*fleet, seed int64, refs map[float64]*core.Result, seconds float64, minN, n int, ocfg core.OrganizerConfig, memEvery time.Duration, out *outcome) *tcpLoop {
	var claimed, done atomic.Int64
	var stop atomic.Bool
	loops := make([]*tcpLoop, len(fleets))
	outs := make([]*outcome, len(fleets))
	var wg sync.WaitGroup
	start := time.Now()
	for k, f := range fleets {
		loops[k], outs[k] = &tcpLoop{}, &outcome{}
		wg.Add(1)
		go func(f *fleet, l *tcpLoop, out *outcome, rng *rand.Rand) {
			defer wg.Done()
			deck := append([]float64(nil), tcpScales...)
			for !stop.Load() && (n == 0 || claimed.Add(1) <= int64(n)) {
				if l.formations%len(tcpScales) == 0 {
					rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
				}
				scale := deck[l.formations%len(deck)]
				svc := tcpService(l.formations, scale)
				l.formations++
				out.attempted++
				switch err := formOnce(f, svc, refs[scale], ocfg, l); {
				case errors.Is(err, errLateWindow):
					out.late("formation %s (scale %g): %v", svc.ID, scale, err)
				case err != nil:
					out.fail("formation %s (scale %g): %v", svc.ID, scale, err)
				}
				done.Add(1)
			}
		}(f, loops[k], outs[k], rand.New(rand.NewSource(shardSeed(seed, k))))
	}
	l := &tcpLoop{}
	var ms runtime.MemStats
	lastHeap := start
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		select {
		case <-finished:
			break wait
		case <-tick.C:
		}
		el := time.Since(start)
		if n == 0 && el.Seconds() >= seconds && done.Load() >= int64(minN) {
			stop.Store(true)
		}
		if el > tcpMaxLoop && !stop.Load() {
			stop.Store(true)
			out.attempted++
			out.fail("loops stopped after %v with %d formations", tcpMaxLoop, done.Load())
		}
		if memEvery > 0 && time.Since(lastHeap) >= memEvery {
			l.peakHeap = max(l.peakHeap, liveHeap(&ms))
			lastHeap = time.Now()
		}
	}
	l.wall = time.Since(start)
	if memEvery > 0 {
		l.peakHeap = max(l.peakHeap, liveHeap(&ms))
	}
	for k := range loops {
		l.merge(loops[k])
		out.attempted += outs[k].attempted
		out.failed += outs[k].failed
		out.failures = append(out.failures, outs[k].failures...)
		out.broken = out.broken || outs[k].broken
	}
	return l
}

// formOnce runs one closed-loop iteration.
func formOnce(f *fleet, svc *task.Service, ref *core.Result, ocfg core.OrganizerConfig, l *tcpLoop) error {
	type formed struct {
		at  time.Time
		res *core.Result
	}
	ch := make(chan formed, 1)
	t0 := time.Now()
	o, err := f.org.Submit(svc, ocfg, func(r *core.Result) {
		select {
		case ch <- formed{time.Now(), r}:
		default:
		}
	})
	if err != nil {
		return err
	}
	var res *core.Result
	select {
	case fr := <-ch:
		res = fr.res
		l.latMs = append(l.latMs, float64(fr.at.Sub(t0).Nanoseconds())/1e6)
	case <-time.After(tcpWait):
		o.Dissolve("perfbench timeout")
		return errors.New("timed out")
	}
	complete := res.Complete()
	if complete {
		l.complete++
		for _, a := range res.Assigned {
			l.distSum += a.Distance
			l.distN++
		}
	}
	o.Dissolve("perfbench done")
	deadline := time.Now().Add(tcpWait)
	for !f.ledgersEmpty() {
		if time.Now().After(deadline) {
			return errors.New("ledgers not empty after dissolve")
		}
		time.Sleep(100 * time.Microsecond)
	}
	switch {
	case !complete:
		err = fmt.Errorf("incomplete %s, net.InteropSim formed %s", describe(res), describe(ref))
	case !qnet.SameAssignment(ref, res):
		l.clean++
		err = fmt.Errorf("assignment %s differs from net.InteropSim's %s", describe(res), describe(ref))
	default:
		l.clean++
		return nil
	}
	if res.Rounds != ref.Rounds || res.ProposalsReceived != ref.ProposalsReceived {
		// The negotiation saw other proposals than the simulator: one
		// arrived after its wall-clock window closed.
		return fmt.Errorf("%w: %v", errLateWindow, err)
	}
	return err
}

// errLateWindow marks a formation that differs from the simulator
// because a proposal or acknowledgement missed its window on the wall
// clock; the formation still counts as failed.
var errLateWindow = errors.New("a proposal or ack missed its window")

// tcpService is the k-th submission of the interop service at a demand
// scale. Each submission needs its own service ID, so its tasks name
// their demand model per scale, as session templates do: providers
// compile a (spec, demand) pair once, however often it is resubmitted.
func tcpService(k int, scale float64) *task.Service {
	svc := workload.StreamService(fmt.Sprintf("interop-%d", k), tcpTasks, scale)
	for _, t := range svc.Tasks {
		t.DemandRef = fmt.Sprintf("interop-x%g/%s", scale, t.ID)
	}
	return svc
}

// describe renders a formation result for failure reports.
func describe(r *core.Result) string {
	ids := make([]string, 0, len(r.Assigned))
	for tid := range r.Assigned {
		ids = append(ids, tid)
	}
	sort.Strings(ids)
	s := fmt.Sprintf("{rounds %d, proposals %d:", r.Rounds, r.ProposalsReceived)
	for _, tid := range ids {
		a := r.Assigned[tid]
		s += fmt.Sprintf(" %s@%d/%.4f", tid, a.Node, a.Distance)
	}
	return s + "}"
}

// interopRefs runs every service scale through the simulator.
func interopRefs(seed int64) (map[float64]*core.Result, error) {
	refs := map[float64]*core.Result{}
	for _, s := range tcpScales {
		r, err := qnet.InteropSim(seed, tcpNodes, tcpTasks, s)
		if err != nil {
			return nil, err
		}
		if !r.Complete() {
			return nil, fmt.Errorf("interop sim at scale %g is incomplete", s)
		}
		refs[s] = r
	}
	return refs, nil
}

func runTCP(rc runConfig) (*outcome, error) {
	refs, err := interopRefs(rc.seed)
	if err != nil {
		return nil, err
	}
	if rc.trace {
		return runTCPTraced(rc, refs)
	}
	out := &outcome{metrics: map[string]float64{}}
	// Set-up is timed on the fleets that run the loops, and on a
	// throwaway fleet built every tcpSetupEvery while they run, so that
	// its median spans the run rather than one moment of the host.
	var setups []float64
	timedFleet := func() (*fleet, error) {
		t0 := time.Now()
		f, err := startFleet(nil)
		if err == nil {
			setups = append(setups, time.Since(t0).Seconds())
		}
		return f, err
	}
	var fleets []*fleet
	defer func() {
		for _, f := range fleets {
			f.close()
		}
	}()
	for len(fleets) < tcpFleets {
		f, err := timedFleet()
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		fleets = append(fleets, f)
	}
	stop, sampled := make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(tcpSetupEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- nil
				return
			case <-tick.C:
			}
			f, err := timedFleet()
			if err != nil {
				sampled <- err
				return
			}
			f.close()
		}
	}()
	l := runLoops(fleets, rc.seed, refs, rc.seconds, minTailSamples, 0, core.DefaultOrganizerConfig, time.Second, out)
	close(stop)
	if err := <-sampled; err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	fmt.Fprintf(rc.log, "# %d formations on %d fleets in %.2fs\n", l.formations, len(fleets), l.wall.Seconds())
	p50, err := percentile(l.latMs, 50)
	if err != nil {
		return nil, err
	}
	p99, err := percentile(l.latMs, 99)
	if err != nil {
		return nil, err
	}
	m := out.metrics
	m["setup_s"] = median(setups)
	m["sessions_per_s"] = float64(l.formations) / l.wall.Seconds()
	m["mem_peak_mb"] = float64(l.peakHeap) / (1 << 20)
	m["admission_ratio"] = ratio(float64(l.complete), float64(l.formations))
	m["qos_distance"] = ratio(l.distSum, float64(l.distN))
	m["survival_ratio"] = ratio(float64(l.clean), float64(l.complete))
	m["formation_p50_ms"] = p50
	m["formation_p99_ms"] = p99
	return out, nil
}

// runTCPTraced produces the per-layer metrics of tcp-loopback: frame,
// provider and allocation counts from an untraced fleet, event counts
// and the tracing overhead from a traced fleet running the same
// formations, and the spans on the interop neighbourhood.
func runTCPTraced(rc runConfig, refs map[float64]*core.Result) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	// Both fleets run the same number of formations: as many as the
	// untraced one manages in a quarter of the run.
	plain, err := startFleet(nil)
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	allocBytes, allocs := ms.TotalAlloc, ms.Mallocs
	pl := runLoops([]*fleet{plain}, rc.seed, refs, rc.seconds/4, 1, 0, core.DefaultOrganizerConfig, 0, out)
	runtime.ReadMemStats(&ms)
	allocBytes, allocs = ms.TotalAlloc-allocBytes, ms.Mallocs-allocs
	// Endpoint counters are atomic and read while the fleet is up, so
	// that closing it adds no send errors; provider counters belong to
	// the node loops and are read once those have stopped.
	var sent, overflows, sendErrors, cfps, props, accepts float64
	for _, node := range plain.nodes {
		sent += float64(node.Endpoint.Sent.Load())
		overflows += float64(node.Endpoint.Overflows.Load())
		sendErrors += float64(node.Endpoint.SendErrors.Load())
	}
	plain.close()
	for _, node := range plain.nodes {
		cfps += float64(node.Provider.CFPs)
		props += float64(node.Provider.Proposals)
		accepts += float64(node.Provider.Accepts)
	}

	counts := trace.NewCounts()
	traced, err := startFleet(counts)
	if err != nil {
		return nil, err
	}
	ocfg := core.DefaultOrganizerConfig
	ocfg.Trace = counts
	tl := runLoops([]*fleet{traced}, rc.seed, refs, 0, 0, pl.formations, ocfg, 0, out)
	traced.close()
	fmt.Fprintf(rc.log, "# %d untraced and %d traced formations\n", pl.formations, tl.formations)

	n := float64(pl.formations)
	m := out.metrics
	for _, k := range []string{
		"radio.deliveries_per_session", "radio.bytes_per_session",
		"adapt.actions_per_session", "adapt.kills_per_session", "admit.yield_steps_per_attempt", "admit.yield_revert_ratio",
	} {
		m[k] = 0 // the fleet runs no radio medium, adaptation or admission layer
	}
	in := interopSpanInput(rc.seed)
	if m["sim.events_per_session"], m["sim.ns_per_event"], err = referenceSim(in); err != nil {
		return nil, err
	}
	m["core.cfps_per_session"] = cfps / n
	m["core.proposals_per_cfp"] = ratio(props, cfps)
	m["core.accept_ratio"] = ratio(accepts, props)
	m["session.alloc_bytes_per_session"] = float64(allocBytes) / n
	m["session.allocs_per_session"] = float64(allocs) / n
	m["net.frames_per_formation"] = sent / n
	m["net.overflows"] = overflows
	m["net.send_errors"] = sendErrors
	m["trace.events_per_session"] = float64(counts.Total()) / n
	m["trace.overhead_ratio"] = tl.wall.Seconds()/pl.wall.Seconds() - 1

	if err := measureSpans(in, m); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	return out, nil
}

// referenceSim prices the simulator half of the workload's check: the
// reference formation of every scale on the interop neighbourhood,
// stepped event by event, repeated for spanBudget. It returns events per
// formation and the median wall time per event.
func referenceSim(in *spanInput) (events, nsPerEvent float64, err error) {
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < spanBudget {
		n := 0
		var wall time.Duration
		for _, scale := range tcpScales {
			cl, err := in.build()
			if err != nil {
				return 0, 0, err
			}
			done := false
			if _, err := cl.Submit(0, orgNode, tcpService(0, scale), in.organizer, func(*core.Result) { done = true }); err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			for !done && cl.Eng.Step() {
				n++
			}
			wall += time.Since(t0)
			if !done {
				return 0, 0, fmt.Errorf("reference sim at scale %g did not form", scale)
			}
		}
		events = float64(n) / float64(len(tcpScales))
		per = append(per, float64(wall.Nanoseconds())/float64(n))
	}
	return events, median(per), nil
}

// interopSpanInput is the interop neighbourhood as net.InteropSim
// builds it, for the span harness.
func interopSpanInput(seed int64) *spanInput {
	rcfg := radio.Config{ProcDelay: qnet.InteropProcDelay}
	in := &spanInput{
		seed: seed,
		build: func() (*core.Cluster, error) {
			cl := core.NewCluster(seed, rcfg, core.DefaultProviderConfig)
			for i := 0; i < tcpNodes; i++ {
				spec := workload.NodeSpecFor(radio.NodeID(i), qnet.InteropProfile(i), core.GridPlacement(i, tcpNodes, qnet.InteropSpacing))
				if _, err := cl.AddNode(spec); err != nil {
					return nil, err
				}
			}
			return cl, nil
		},
		service:      func(seq int) *task.Service { return tcpService(seq, 1.0) },
		organizer:    core.DefaultOrganizerConfig,
		radio:        rcfg,
		unicastShare: -1, // taken from the captured formation
		live:         1,
	}
	for i := 0; i < tcpNodes; i++ {
		p := qnet.InteropProfile(i)
		pos := core.GridPlacement(i, tcpNodes, qnet.InteropSpacing)
		in.links = append(in.links, nodeLink{id: radio.NodeID(i), link: radio.Link{Pos: radio.Pos(pos), RangeM: p.RangeM, Bitrate: p.Bitrate}})
	}
	return in
}
