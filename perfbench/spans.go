package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/admit"
	"repro/internal/core"
	qnet "repro/internal/net"
	"repro/internal/proto"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/task"
)

// The spans time the benchmark's own calls into each layer's public
// functions, on the workload's neighbourhood, service template and
// message mix. Each span is the median over batches of the per-call
// wall time; results stay in memory until the run prints them.

// spanBudget is the wall time each span measures for.
const spanBudget = 300 * time.Millisecond

type nodeLink struct {
	id   radio.NodeID
	link radio.Link
}

// spanInput is what the span harness needs from a workload.
type spanInput struct {
	seed      int64
	build     func() (*core.Cluster, error) // a fresh copy of the neighbourhood
	service   func(seq int) *task.Service   // the session template
	organizer core.OrganizerConfig
	adapt     adapt.Config
	radio     radio.Config
	links     []nodeLink // node placement, radio range and bitrate
	// depth is the event-queue depth the workload runs at; unicastShare
	// the share of radio sends that are unicasts; live the number of
	// concurrently operating sessions the adapt spans run over.
	depth        int
	unicastShare float64
	live         int
}

// Sinks keep the results of timed calls alive.
var (
	vecSink    resource.Vector
	selectSink *core.Selection
)

// timeBatches calls op n times per batch, for at least five batches and
// spanBudget, and returns the median nanoseconds per call.
func timeBatches(n int, op func(i int)) float64 {
	var per []float64
	start := time.Now()
	for k := 0; len(per) < 5 || time.Since(start) < spanBudget; k++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(k*n + i)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// capture is one formation and dissolve of the workload's template on a
// fresh neighbourhood, with every delivered message recorded.
type capture struct {
	cl        *core.Cluster
	svc       *task.Service
	msgs      []proto.Msg
	proposals []delivered // round-0 proposals delivered to the organizer
	depth     float64     // mean event-queue depth over the formation
}

type delivered struct {
	from radio.NodeID
	p    *proto.Proposal
}

const orgNode radio.NodeID = 0

// captureFormation forms a coalition for one session through
// Cluster.Submit. Each node's radio handler is replaced by one that
// records the message and then routes it exactly as the cluster does,
// through proto.Dispatch to the node's provider or the organizer.
func captureFormation(in *spanInput) (*capture, error) {
	cl, err := in.build()
	if err != nil {
		return nil, err
	}
	c := &capture{cl: cl, svc: in.service(1 << 20)}
	var org *core.Organizer
	for _, id := range cl.Nodes() {
		id, node, dedup := id, cl.Node(id), &proto.Dedup{}
		orgSink := func(svc string) proto.Sink {
			if id == orgNode && org != nil && svc == c.svc.ID {
				return org
			}
			return nil
		}
		cl.Medium.SetHandler(id, func(from radio.NodeID, msg any) {
			m, ok := msg.(proto.Msg)
			if !ok {
				return
			}
			c.msgs = append(c.msgs, m)
			if inner, _ := proto.Unwrap(m); id == orgNode {
				if p, ok := inner.(*proto.Proposal); ok && p.Round == 0 {
					c.proposals = append(c.proposals, delivered{from, p})
				}
			}
			proto.Dispatch(dedup, from, m, orgSink, node.Provider)
		})
	}
	formed := false
	org, err = cl.Submit(0, orgNode, c.svc, in.organizer, func(r *core.Result) { formed = formed || r.Complete() })
	if err != nil {
		return nil, err
	}
	steps, pending := 0, 0
	for cl.Eng.Now() < 3 && cl.Eng.Step() {
		steps++
		pending += cl.Eng.Pending()
	}
	if !formed || len(c.proposals) == 0 {
		return nil, errors.New("capture: the template session did not form")
	}
	c.depth = float64(pending) / float64(steps)
	org.Dissolve("perfbench capture")
	for until := cl.Eng.Now() + 2; cl.Eng.Now() < until && cl.Eng.Step(); {
	}
	return c, nil
}

// measureSpans fills every span metric of m.
func measureSpans(in *spanInput, m map[string]float64) error {
	c, err := captureFormation(in)
	if err != nil {
		return err
	}
	if in.depth < 1 {
		in.depth = max(1, int(c.depth))
	}
	if in.unicastShare < 0 {
		st := c.cl.Medium.Stats
		in.unicastShare = ratio(float64(st.Unicasts), float64(st.Unicasts+st.Broadcasts))
	}
	m["sim.push_pop_ns"] = spanPushPop(in)
	if m["radio.delivery_ns"], err = spanDelivery(in, c); err != nil {
		return err
	}
	if m["core.cfp_cold_ns"], m["core.cfp_warm_ns"], err = spanCFP(in); err != nil {
		return err
	}
	if m["core.proposal_ns"], m["core.select_ns"], err = spanOrganizer(in, c); err != nil {
		return err
	}
	if m["resource.available_ns"], m["resource.reserve_release_ns"], err = spanResource(c); err != nil {
		return err
	}
	if m["adapt.tick_ns"], m["adapt.epoch_scan_ns"], m["admit.yield_ns"], err = spanAdapt(in); err != nil {
		return err
	}
	if m["proto.encode_ns_per_frame"], m["proto.decode_ns_per_frame"], m["proto.bytes_per_frame"], err = spanCodec(c); err != nil {
		return err
	}
	if m["net.send_ns"], err = spanSend(c); err != nil {
		return err
	}
	return nil
}

func cfpFor(svc *task.Service) *proto.CFP {
	cfp := &proto.CFP{ServiceID: svc.ID, SpecName: svc.Spec.Name, Deadline: core.DefaultOrganizerConfig.ProposalWait}
	for _, t := range svc.Tasks {
		cfp.Tasks = append(cfp.Tasks, proto.TaskDescr{
			TaskID: t.ID, Request: t.Request, DemandRef: t.Ref(svc.ID),
			InBytes: t.InBytes, OutBytes: t.OutBytes,
		})
	}
	return cfp
}

// spanPushPop times Engine.AfterArg plus Step on a heap held at the
// workload's queue depth: every pop is replaced by one push.
func spanPushPop(in *spanInput) float64 {
	eng := sim.New(in.seed)
	rng := rand.New(rand.NewSource(in.seed))
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = rng.ExpFloat64()
	}
	nop := func(any) {}
	for i := 0; i < in.depth; i++ {
		eng.AfterArg(delays[i%len(delays)], nop, nil)
	}
	return timeBatches(1000, func(i int) {
		eng.AfterArg(delays[i%len(delays)], nop, nil)
		eng.Step()
	})
}

// spanDelivery times Medium.Send and SendBroadcast through to delivery
// on a medium with the workload's placement, mixing unicasts and
// broadcasts in the workload's proportion. It returns ns per delivery.
func spanDelivery(in *spanInput, c *capture) (float64, error) {
	eng := sim.New(in.seed)
	med := radio.NewMedium(eng, in.radio)
	deliveries := 0
	for _, l := range in.links {
		if err := med.Attach(l.id, radio.Static(l.link.Pos), l.link.RangeM, l.link.Bitrate, func(radio.NodeID, any) { deliveries++ }); err != nil {
			return 0, err
		}
	}
	type pair struct{ from, to radio.NodeID }
	var pairs []pair
	for _, a := range in.links {
		for _, b := range in.links {
			if a.id != b.id && med.InRange(a.id, b.id) {
				pairs = append(pairs, pair{a.id, b.id})
			}
		}
	}
	if len(pairs) == 0 {
		return 0, errors.New("delivery span: no node pair in range")
	}
	rng := rand.New(rand.NewSource(in.seed))
	const batch = 64
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < spanBudget {
		deliveries = 0
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			msg := c.msgs[rng.Intn(len(c.msgs))]
			p := pairs[rng.Intn(len(pairs))]
			if rng.Float64() < in.unicastShare {
				med.Send(p.from, p.to, msg, msg.WireSize())
			} else {
				med.SendBroadcast(p.from, msg, msg.WireSize())
			}
		}
		for eng.Step() {
		}
		if deliveries > 0 {
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(deliveries))
		}
	}
	return median(per), nil
}

// spanCFP times Provider.OnMsg with a CFP for the workload's template:
// cold is each provider's first sight of the template (compile and
// formulate), warm the same CFP again with availability unchanged.
func spanCFP(in *spanInput) (cold, warm float64, err error) {
	var colds, warms []float64
	start := time.Now()
	for len(colds) < 20 || time.Since(start) < spanBudget {
		cl, err := in.build()
		if err != nil {
			return 0, 0, err
		}
		svc := in.service(2 << 20)
		if err := cl.Catalog.RegisterService(svc); err != nil {
			return 0, 0, err
		}
		cfp := cfpFor(svc)
		for _, id := range cl.Nodes() {
			if id == orgNode {
				continue
			}
			p := cl.Node(id).Provider
			t0 := time.Now()
			p.OnMsg(orgNode, cfp)
			t1 := time.Now()
			p.OnMsg(orgNode, cfp)
			colds = append(colds, float64(t1.Sub(t0).Nanoseconds()))
			warms = append(warms, float64(time.Since(t1).Nanoseconds()))
		}
	}
	return median(colds), median(warms), nil
}

// stubTransport and stubTimers let an organizer run outside any
// runtime: sends vanish, timers never fire, and communication cost
// follows the workload's radio links.
type stubTransport struct {
	links map[radio.NodeID]radio.Link
	radio radio.Config
}

func (stubTransport) Self() radio.NodeID                 { return orgNode }
func (stubTransport) Send(radio.NodeID, proto.Msg) error { return nil }
func (stubTransport) Broadcast(proto.Msg) error          { return nil }
func (s stubTransport) CommCost(to radio.NodeID, size int64) float64 {
	return radio.LinkLatency(s.links[orgNode], s.links[to], size, s.radio.PropDelay, s.radio.ProcDelay)
}

type stubTimers struct{}

func (stubTimers) Now() float64          { return 0 }
func (stubTimers) After(float64, func()) {}

// spanOrganizer times Organizer.OnMsg over the captured round-0
// proposals (ns per proposal, on a fresh organizer each pass) and
// core.SelectWinners over the candidates those proposals make.
func spanOrganizer(in *spanInput, c *capture) (proposal, selection float64, err error) {
	tr := stubTransport{links: map[radio.NodeID]radio.Link{}, radio: in.radio}
	for _, l := range in.links {
		tr.links[l.id] = l.link
	}
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < spanBudget {
		o, err := core.NewOrganizer(c.svc, tr, stubTimers{}, in.organizer, func(*core.Result) {})
		if err != nil {
			return 0, 0, err
		}
		o.Start()
		t0 := time.Now()
		for _, d := range c.proposals {
			o.OnMsg(d.from, d.p)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(c.proposals)))
	}

	var taskIDs []string
	cands := map[string][]core.Candidate{}
	for _, t := range c.svc.Tasks {
		taskIDs = append(taskIDs, t.ID)
		ev, err := qos.NewEvaluator(c.svc.Spec, &t.Request)
		if err != nil {
			return 0, 0, err
		}
		for _, d := range c.proposals {
			for _, tp := range d.p.Tasks {
				if tp.TaskID != t.ID {
					continue
				}
				dist, err := ev.Distance(tp.Level)
				if err != nil {
					return 0, 0, err
				}
				cands[t.ID] = append(cands[t.ID], core.Candidate{
					Node: d.from, TaskID: t.ID, Level: tp.Level, Reward: tp.Reward,
					Distance: dist, CommCost: tr.CommCost(d.from, t.InBytes+t.OutBytes), Copies: tp.Copies,
				})
			}
		}
	}
	selection = timeBatches(100, func(int) { selectSink = core.SelectWinners(taskIDs, cands, in.organizer.Policy) })
	return median(per), selection, nil
}

// spanResource times resource.Set reads and a reserve/release pair of
// the template's first task, on a ledger with a helper node's capacity.
func spanResource(c *capture) (available, reserveRelease float64, err error) {
	capacity := c.cl.Node(1).Res.Capacity()
	set := resource.NewSet(capacity)
	t := c.svc.Tasks[0]
	dm, ok := c.cl.Catalog.Demand(t.Ref(c.svc.ID))
	if !ok {
		return 0, 0, fmt.Errorf("resource span: no demand model for %s", t.Ref(c.svc.ID))
	}
	cp, err := core.CompileProblem(c.svc.Spec, &t.Request, dm, core.DefaultProviderConfig.GridSteps, nil)
	if err != nil {
		return 0, 0, err
	}
	f, err := cp.Formulate(set.CanReserve)
	if err != nil {
		return 0, 0, fmt.Errorf("resource span: %w", err)
	}
	available = timeBatches(1000, func(int) { vecSink = set.Available() })
	var rerr error
	reserveRelease = timeBatches(1000, func(int) {
		if err := set.Reserve("perfbench", f.Demand); err != nil {
			rerr = err
		}
		vecSink = set.Release("perfbench")
	})
	return available, reserveRelease, rerr
}

// spanAdapt times the adaptation engine's Tick and EpochScan, and a
// Yield undone by YieldResolve, over the workload's number of live
// sessions admitted through Cluster.Submit.
func spanAdapt(in *spanInput) (tick, epoch, yield float64, err error) {
	cl, err := in.build()
	if err != nil {
		return 0, 0, 0, err
	}
	ocfg := in.organizer
	ocfg.Monitor, ocfg.Reconfigure = false, false // the adapt engine owns repair
	live := min(max(in.live, 1), 16)
	var orgs []*core.Organizer
	formed := map[*core.Organizer]bool{}
	for k := 0; k < live; k++ {
		var o *core.Organizer
		o, err = cl.Submit(float64(k), orgNode, in.service(3<<20+k), ocfg, func(r *core.Result) {
			formed[o] = r.Complete()
		})
		if err != nil {
			return 0, 0, 0, err
		}
		orgs = append(orgs, o)
	}
	now := cl.Run(float64(live) + 3)
	// The workloads leave the pressure and epoch triggers off, which
	// makes Tick and EpochScan return at once; the span prices them with
	// E23's triggers on, over the same admitted sessions.
	acfg := in.adapt
	acfg.DegradeOnPressure, acfg.UtilHigh = true, 0.85
	acfg.UpgradeOnSlack, acfg.UtilLow, acfg.Epoch = true, 0.6, 10
	ae, err := adapt.New(cl, acfg, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, o := range orgs {
		if formed[o] {
			if err := ae.Admit(now, orgNode, o, true); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	tick = timeBatches(20, func(int) { ae.Tick(now) })
	epoch = timeBatches(20, func(int) { ae.EpochScan(now) })
	pending := in.service(4 << 20)
	if err := cl.Catalog.RegisterService(pending); err != nil {
		return 0, 0, 0, err
	}
	gain, err := ae.SessionBestUtility(pending)
	if err != nil {
		return 0, 0, 0, err
	}
	steps := admit.Config{}.WithDefaults().MaxYieldSteps
	yield = timeBatches(20, func(int) {
		ae.Yield(now, pending.ID, gain, steps)
		ae.YieldResolve(now, pending.ID, false)
	})
	return tick, epoch, yield, nil
}

// spanCodec times Codec.AppendFrame and Decode over the captured
// formation message mix, per frame.
func spanCodec(c *capture) (encode, decode, bytesPerFrame float64, err error) {
	codec := proto.Codec{}
	var frames [][]byte
	var total int
	for _, m := range c.msgs {
		b, err := codec.Encode(m)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("codec span: %w", err)
		}
		frames = append(frames, b)
		total += len(b)
	}
	buf := make([]byte, 0, 4096)
	n := len(c.msgs)
	encode = timeBatches(n, func(i int) { buf, err = codec.AppendFrame(buf[:0], c.msgs[i%n]) })
	if err != nil {
		return 0, 0, 0, err
	}
	decode = timeBatches(n, func(i int) {
		if _, derr := codec.Decode(frames[i%n]); derr != nil {
			err = derr
		}
	})
	return encode, decode, float64(total) / float64(n), err
}

// spanSend times Endpoint.Send of the captured message mix to a peer
// endpoint on loopback whose inbox is drained concurrently.
func spanSend(c *capture) (float64, error) {
	const scale = tcpTimeScale
	a := qnet.NewEndpoint(qnet.InteropEndpointConfig(0, 2, "", scale))
	b := qnet.NewEndpoint(qnet.InteropEndpointConfig(1, 2, "127.0.0.1:0", scale))
	defer a.Close()
	defer b.Close()
	if err := b.Listen(); err != nil {
		return 0, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, ep := range []*qnet.Endpoint{a, b} {
		wg.Add(1)
		go func(inbox <-chan qnet.Delivery) {
			defer wg.Done()
			for {
				select {
				case <-inbox:
				case <-stop:
					return
				}
			}
		}(ep.Inbox())
	}
	defer wg.Wait()
	defer close(stop)
	if err := a.Dial(1, b.Addr()); err != nil {
		return 0, err
	}
	var serr error
	n := len(c.msgs)
	ns := timeBatches(n, func(i int) {
		if err := a.Send(1, c.msgs[i%n]); err != nil {
			serr = err
		}
	})
	return ns, serr
}
