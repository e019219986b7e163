package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ipra"
	"ipra/internal/progen"
	"ipra/internal/served"
)

// The served workload is open loop: requests are due at fixed intervals
// whether or not earlier ones have finished, and each is timed from its
// due time, so a stall is charged to every request it delays. One
// connection per CPU carries them; a request waits for a free one.
const (
	// steadyRate is the request rate of the steady phase, which gives
	// the latency metrics. At this rate a rebuild occupies the daemon
	// about a fifth of the time: at 30 req/s a hit shared the CPUs with a
	// rebuild about half the time, so the median moved with every change
	// in build speed and spread 25-45% between runs.
	steadyRate = 10.0
	// segmentRequests is the length of a steady-phase segment. Each
	// segment runs open loop and drains before the reference task
	// (reftask.go) runs, so that the task never delays a request.
	segmentRequests = 10
	// ladderShare is the share of a traced run's window the rate ladder
	// takes. The ladder runs only traced: its highest passing rate moves by
	// a step or more between runs, and how far it climbs sets the process's
	// peak memory, so an untraced run gives the whole window to the steady
	// phase.
	ladderShare = 0.4
	// The ladder offers ladderBase × ladderFactor^k requests per second
	// for k = 0, 1, ... ladderSteps-1 and stops at the first step that
	// fails its limit.
	ladderBase   = 50.0
	ladderFactor = 1.1
	ladderSteps  = 8
	// latencyLimit is the p90 a ladder step must meet; every request due
	// in the step must also have finished by the step's end plus the
	// limit, and none may fail.
	latencyLimit = 150 * time.Millisecond
	// warmupRequests are sent, one at a time, during set-up.
	warmupRequests = 20
	// drainTimeout bounds how long a phase waits for its requests after
	// its last one was due; any still unfinished then fail with the
	// phase's expired context.
	drainTimeout = 10 * time.Second
	// maxLate is how late the generator may send a request before the
	// run stops being an open loop.
	maxLate = 50 * time.Millisecond
)

// servedEdits is the edit mix of new versions: body, call and no-op edits
// 2:1:1.
var servedEdits = []progen.EditKind{progen.EditBody, progen.EditBody, progen.EditCall, progen.EditNoop}

// servedWrites says which of every ten requests carry a new edit of the
// program (three); the rest re-request the latest built version, which
// the daemon's result cache answers.
var servedWrites = []bool{true, true, true, false, false, false, false, false, false, false}

// daemon is an in-process build daemon on a Unix socket, with a client.
type daemon struct {
	srv    *served.Server
	client *served.Client
	done   chan error
}

func startDaemon(ctx context.Context, dir string, jobs int) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv := served.New(served.Options{StateDir: filepath.Join(dir, "state"), Concurrency: jobs, Jobs: jobs})
	sock := shortPath(filepath.Join(dir, "d.sock"))
	l, err := served.ListenUnix(sock)
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(l) }()
	if d.client, err = served.Dial("unix:" + sock); err != nil {
		d.stop()
		return nil, err
	}
	d.client.Retries = 0
	if err := d.client.WaitReady(ctx, 10*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the daemon and waits for its server goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; err == nil {
		err = serr
	}
	return err
}

// shortPath returns p relative to the working directory when that is
// shorter: a Unix socket path must fit in about 100 bytes.
func shortPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	if rel, err := filepath.Rel(wd, p); err == nil && len(rel) < len(p) {
		return rel
	}
	return p
}

// request is one scheduled request and what became of it.
type request struct {
	at    time.Duration // due this long after its phase starts
	write bool          // a new version, made when the request is scheduled

	due        time.Time
	version    int // the version requested; for reads, set when sent
	start, end time.Time
	late       time.Duration // how late the generator handed it over
	serverMS   float64
	hit        bool
	rejected   bool
	err        error
}

// servedVersion is one source version of the program and its first
// response.
type servedVersion struct {
	req *served.BuildRequest
	ok  bool // the first response arrived
	sum [32]byte
	exe []byte // kept for the versions checked against a local build
}

// servedRun is the client side of the served workload.
type servedRun struct {
	o     opts
	shape progen.Config
	base  []progen.Module
	d     *daemon
	// writes and kinds draw whether a request carries a new edit, and
	// which kind of edit.
	writes *deck[bool]
	kinds  *deck[progen.EditKind]

	mu        sync.Mutex
	versions  []*servedVersion // version 0 is the base program
	latest    int              // newest version whose first response arrived
	latestExe []byte
}

func buildRequest(mods []progen.Module) *served.BuildRequest {
	req := &served.BuildRequest{Config: "C", Sources: make([]served.Source, len(mods))}
	for i, m := range mods {
		req.Sources[i] = served.Source{Name: m.Name, Text: m.Text}
	}
	return req
}

// addVersion registers a source version and returns its number.
func (s *servedRun) addVersion(mods []progen.Module) int {
	req := buildRequest(mods)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.versions = append(s.versions, &servedVersion{req: req})
	return len(s.versions) - 1
}

// edit registers a new version: the base program with one seeded edit.
func (s *servedRun) edit(seed int64) int {
	mods, _ := progen.Mutate(s.shape, s.base, seed, s.kinds.draw())
	return s.addVersion(mods)
}

// draws sets the run's request and edit draws from seed.
func (s *servedRun) draws(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s.writes = newDeck(rng, servedWrites...)
	s.kinds = newDeck(rng, servedEdits...)
}

// send requests version v once and checks the reply against the
// version's first response.
func (s *servedRun) send(ctx context.Context, q *request) {
	s.mu.Lock()
	v := s.versions[q.version]
	s.mu.Unlock()
	q.start = time.Now()
	resp, err := s.d.client.Build(ctx, v.req)
	q.end = time.Now()
	if err != nil {
		q.err = err
		if se, ok := err.(*served.StatusError); ok && se.Saturated() {
			q.rejected = true
		}
		return
	}
	q.serverMS = resp.ElapsedMS
	q.hit = resp.ResultCached
	sum := sha256.Sum256(resp.Exe)
	s.mu.Lock()
	defer s.mu.Unlock()
	if v.ok {
		if sum != v.sum {
			q.err = fmt.Errorf("version %d: response differs from the version's first response", q.version)
		}
		return
	}
	v.ok, v.sum = true, sum
	if q.version%10 == 0 {
		v.exe = resp.Exe
	}
	if q.version > s.latest {
		s.latest, s.latestExe = q.version, resp.Exe
	}
}

// phase sends reqs on schedule over jobs connections and returns, with
// the phase's start time, once all have finished or drainTimeout after
// the last was due.
func (s *servedRun) phase(ctx context.Context, reqs []*request) time.Time {
	start := time.Now().Add(10 * time.Millisecond)
	if len(reqs) == 0 {
		return start
	}
	for _, q := range reqs {
		q.due = start.Add(q.at)
	}
	ctx, cancel := context.WithDeadline(ctx, reqs[len(reqs)-1].due.Add(drainTimeout))
	defer cancel()
	queue := make(chan *request, len(reqs)) // sized so the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < s.o.jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				if !q.write {
					s.mu.Lock()
					q.version = s.latest
					s.mu.Unlock()
				}
				s.send(ctx, q)
			}
		}()
	}
	for _, q := range reqs {
		if wait := time.Until(q.due); wait > 0 {
			time.Sleep(wait)
		}
		q.late = time.Since(q.due)
		queue <- q
	}
	close(queue)
	wg.Wait()
	return start
}

// schedule lays out n requests at rate per second. Whether a request is a
// write, and its edit, come from the run's seeded draws.
func (s *servedRun) schedule(rate float64, n int) []*request {
	reqs := make([]*request, n)
	for i := range reqs {
		q := &request{at: time.Duration(float64(i) / rate * float64(time.Second))}
		if s.writes.draw() {
			q.write = true
			q.version = s.edit(s.o.seed*1_000_000 + int64(len(s.versions)))
		}
		reqs[i] = q
	}
	return reqs
}

// runServed measures build requests to an in-process daemon (default
// options, a temporary state directory) over a Unix socket: a steady
// phase at steadyRate gives the latency metrics, and, traced, a rate
// ladder gives the highest rate that meets latencyLimit. Every response
// must equal its version's first response, and every tenth version (and
// the last) must equal a local ipra.Build of the same sources.
func runServed(ctx context.Context, o opts, r *result) error {
	s := &servedRun{o: o, shape: shapeFor(o, servedShape)}
	setups := 0
	err := measureSetup(r, func() error {
		ipra.ResetPhase1Cache()
		s.base = progen.Generate(s.shape)
		s.versions, s.latest = nil, 0
		d, err := startDaemon(ctx, filepath.Join(o.work, fmt.Sprintf("served-%d", setups)), o.jobs)
		if err != nil {
			return err
		}
		s.d = d
		setups++
		s.addVersion(s.base)
		// The warm-up is the same on every run, and its edits draw from a
		// seed space of their own.
		s.draws(0)
		for i := 0; i < warmupRequests; i++ {
			q := &request{version: s.latest}
			if s.writes.draw() && i > 0 {
				q.version = s.edit(-int64(i))
			}
			s.send(ctx, q)
			if q.err != nil {
				return q.err
			}
		}
		return nil
	}, func() error {
		d := s.d
		s.d = nil
		return d.stop()
	})
	if err != nil {
		if s.d != nil {
			s.d.stop()
		}
		return err
	}
	defer func() {
		if s.d != nil {
			s.d.stop()
		}
	}()
	r.set("exe_bytes", float64(len(s.versions[0].exe)), "bytes")
	s.draws(o.seed)

	stopStats := make(chan struct{})
	var statsWG sync.WaitGroup
	var maxQueue int64
	statsWG.Add(1)
	go func() {
		defer statsWG.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopStats:
				return
			case <-tick.C:
				if q := s.d.srv.Stats().Gauges["served.queue_depth"]; q > maxQueue {
					maxQueue = q
				}
			}
		}
	}()

	ladderSec := 0.0
	steps := 0
	if o.trace {
		ladderSec, steps = o.seconds*ladderShare, ladderSteps
	}
	stepSec := ladderSec / ladderSteps
	steadyN := int(steadyRate * (o.seconds - ladderSec))
	if o.toy {
		steadyN, steps = toyOps, min(steps, 1)
	}
	var steady []*request
	lat := opTimes{jobs: o.jobs}
	for len(steady) < steadyN {
		seg := s.schedule(steadyRate, min(segmentRequests, steadyN-len(steady)))
		s.phase(ctx, seg)
		for _, q := range seg {
			if q.err == nil {
				lat.add(q.end.Sub(q.due))
			}
		}
		lat.flush()
		steady = append(steady, seg...)
	}
	all := append([]*request(nil), steady...)

	maxRate := 0.0
	for k := 0; k < steps; k++ {
		rate := ladderBase * math.Pow(ladderFactor, float64(k))
		n := int(rate * stepSec)
		if o.toy {
			n = toyOps
		}
		step := s.schedule(rate, n)
		start := s.phase(ctx, step)
		all = append(all, step...)
		if !stepPasses(step, start.Add(time.Duration(float64(n)/rate*float64(time.Second)))) {
			break
		}
		maxRate = rate
	}
	close(stopStats)
	statsWG.Wait()

	var busy, hitLat, buildLat, server, wait, transport []time.Duration
	var late time.Duration
	var hits, rejected int
	for i, q := range all {
		r.Attempted++
		late = max(late, q.late)
		if q.err != nil {
			r.fail("request %d: %v", i, q.err)
			if q.rejected {
				rejected++
			}
			continue
		}
		d := q.end.Sub(q.due)
		if i < len(steady) {
			busy = append(busy, q.end.Sub(q.start))
		}
		srv := time.Duration(q.serverMS * float64(time.Millisecond))
		server = append(server, srv)
		wait = append(wait, q.start.Sub(q.due))
		transport = append(transport, q.end.Sub(q.start)-srv)
		if q.hit {
			hits++
			hitLat = append(hitLat, d)
		} else {
			buildLat = append(buildLat, d)
		}
	}

	// One version in ten, and the newest, against a local build.
	s.mu.Lock()
	latest, latestExe := s.latest, s.latestExe
	versions := s.versions
	s.mu.Unlock()
	for v, sv := range versions {
		want := sv.exe
		if v == latest {
			want = latestExe
		}
		if !sv.ok || want == nil {
			continue
		}
		res, err := ipra.Build(ctx, requestSources(sv.req), preset("C", o.jobs))
		if err != nil {
			r.fail("local build of version %d: %v", v, err)
			continue
		}
		if got, err := exeBytes(res.Exe); err != nil || !bytes.Equal(got, want) {
			r.fail("version %d: daemon executable differs from a local build", v)
		}
	}

	r.latency(&lat)
	// Throughput, as for the closed-loop workloads, is requests completed
	// per second of busy connection time, times the connections: what the
	// daemon would serve with every connection kept busy at the steady
	// phase's mix. max_rate_rps is what the ladder sustained within the
	// latency limit.
	r.setRate("ops_per_s", o.jobs*len(busy), sum(busy))
	if steps > 0 {
		r.set("max_rate_rps", maxRate, "1/s")
	}
	r.timing("served.hit_ms", hitLat)
	r.timing("served.build_ms", buildLat)
	r.timing("served.server_ms", server)
	r.timing("served.wait_ms", wait)
	r.timing("served.transport_ms", transport)
	r.set("served.queue_depth.max", float64(maxQueue), "count")
	r.set("served.result_hit_ratio", float64(hits)/float64(len(all)), "ratio")
	r.set("served.rejected", float64(rejected), "count")
	r.set("loadgen.late_ms.max", ms(late), "ms")
	if late > maxLate {
		fmt.Fprintf(os.Stderr, "benchmark: served: the generator ran %v late (limit %v); the run was not open loop\n", late, maxLate)
	}
	if !o.trace {
		return nil
	}
	if err := s.traceOverhead(ctx, r); err != nil {
		return err
	}
	return layerProfile(ctx, o, r, [][]ipra.Source{toSources(s.base)}, 0)
}

func requestSources(req *served.BuildRequest) []ipra.Source {
	src := make([]ipra.Source, len(req.Sources))
	for i, s := range req.Sources {
		src[i] = ipra.Source{Name: s.Name, Text: []byte(s.Text)}
	}
	return src
}

// stepPasses reports whether a ladder step met its limit: nothing failed,
// everything finished by the step's end plus the limit, and the p90
// latency is within the limit.
func stepPasses(step []*request, end time.Time) bool {
	ds := make([]float64, 0, len(step))
	for _, q := range step {
		if q.err != nil || q.end.After(end.Add(latencyLimit)) {
			return false
		}
		ds = append(ds, float64(q.end.Sub(q.due)))
	}
	sort.Float64s(ds)
	return time.Duration(quantile(ds, 0.9)) <= latencyLimit
}

// overheadPairs is how many versions the tracing-overhead probe builds.
const overheadPairs = 10

// traceOverhead records trace.overhead_frac for the daemon: two fresh
// daemons build the same sequence of edited versions, one asked for each
// request's Chrome trace and one not, taking turns going first; the ratio
// is of their total server-side build times.
func (s *servedRun) traceOverhead(ctx context.Context, r *result) error {
	var ds [2]*daemon
	for i := range ds {
		d, err := startDaemon(ctx, filepath.Join(s.o.work, fmt.Sprintf("served-overhead-%d", i)), s.o.jobs)
		if err != nil {
			return err
		}
		defer d.stop()
		ds[i] = d
	}
	pairs := overheadPairs
	if s.o.toy {
		pairs = 1
	}
	rng := rand.New(rand.NewSource(s.o.seed))
	var elapsed [2]float64
	for j := 0; j <= pairs; j++ {
		mods := s.base
		if j > 0 {
			mods, _ = progen.Mutate(s.shape, s.base, -s.o.seed*1_000_000-1000-int64(j), servedEdits[rng.Intn(len(servedEdits))])
		}
		var sums [2][32]byte
		for k := 0; k < 2; k++ {
			i := (j + k) % 2
			req := buildRequest(mods)
			req.Trace = i == 1
			resp, err := ds[i].client.Build(ctx, req)
			if err != nil {
				return fmt.Errorf("tracing-overhead probe: %w", err)
			}
			sums[i] = sha256.Sum256(resp.Exe)
			if j > 0 { // version 0 primes both build directories
				elapsed[i] += resp.ElapsedMS
			}
		}
		r.Attempted++
		if sums[0] != sums[1] {
			r.fail("tracing-overhead probe: version %d: traced and untraced daemons disagree", j)
		}
	}
	if elapsed[0] > 0 {
		r.set("trace.overhead_frac", elapsed[1]/elapsed[0], "ratio")
	}
	return nil
}
