package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/view"
)

// Closed-loop shape of the serve workloads: conns clients, each with one
// request in flight, never more than the 2 CPUs of the reference machine.
// A repetition is a batch of batchSize requests; its wall time is the
// workload's wall_s.
const (
	conns        = 2
	batchSize    = 500
	scriptLen    = 1 << 14
	daemonStarts = 21
	replays      = 15
)

// request is one distinct request body of a serve workload, with the
// answer the in-process engine gives for it.
type request struct {
	endpoint string // census, advice, indices, sameview or corpus_census
	path     string
	body     []byte
	graph    string // content hash of the inline graph; "" for corpus members
	want     any    // expected response, decoded
	weight   float64

	verified atomic.Pointer[[]byte] // a response already checked equal to want
	replay   replayCost
}

// replayCost is the median time of each handler stage when the request is
// replayed in process through the library calls the handler makes.
type replayCost struct {
	// decode includes tagParse, the response-cache check's parse of the body.
	decode, tagParse, resolve, graphDecode, query, encode float64 // microseconds
}

func (c replayCost) total() float64 {
	return c.decode + c.graphDecode + c.resolve + c.query + c.encode
}

// daemonSeed is the seed fourshadesd draws the default corpus's random
// members from. It is fixed: the random members' query costs differ by
// multiples from one draw to the next, which would make the serve figures
// depend on the seed. The workload seed draws the requests and their order.
const daemonSeed = 1

// reference is the in-process side of a serve workload: the engine and the
// default corpus the daemon builds from the same seed.
type reference struct {
	eng *engine.Engine
	def *corpus.Corpus
}

// serveMix builds a serve workload's distinct requests.
type serveMix func(seed int64, ref *reference) ([]*request, error)

// The request weights are assumed, not measured traffic: fourshadesd keeps
// no request log to draw them from. They start from cmd/serveload's default
// mix (census=3,advice=2,sameview=2,corpus=1,stats=1). serve-corpus keeps
// its weights, adds indices at 2 like the other member-level queries, and
// leaves out stats, whose answer no engine call can check. serve-inline
// sends census and advice with inline graphs at serveload's 3:2, and
// member-level indices and sameview at 1 each, a minority of 2 in 7.
const (
	wCensus, wAdvice, wIndices, wSameview, wCorpus = 3.0, 2.0, 2.0, 2.0, 1.0

	wInlineCensus, wInlineAdvice, wMemberIndices, wMemberSameview = 3.0, 2.0, 1.0, 1.0
)

// serveCorpusMix: member-level census, advice, indices and sameview over the
// default corpus, plus an occasional whole-corpus census. Census and advice
// answers come from the daemon's response cache once warm.
func serveCorpusMix(seed int64, ref *reference) ([]*request, error) {
	rng := rand.New(rand.NewSource(seed))
	names := ref.def.Names()
	var reqs []*request
	add := func(endpoint, path string, weight float64, body any) {
		data, _ := json.Marshal(body)
		reqs = append(reqs, &request{endpoint: endpoint, path: path, body: data, weight: weight})
	}
	member := func(name string) map[string]string { return map[string]string{"corpus": "default", "name": name} }
	each := 1 / float64(len(names))
	for _, n := range names {
		add("census", "/v1/census", wCensus*each, member(n))
		add("advice", "/v1/advice", wAdvice*each, member(n))
		add("indices", "/v1/indices", wIndices*each, member(n))
	}
	const pairs = 24
	for i := 0; i < pairs; i++ {
		add("sameview", "/v1/sameview", wSameview/pairs, sameViewBody(rng, ref, names))
	}
	add("corpus_census", "/v1/census", wCorpus, map[string]string{"corpus": "default"})
	return reqs, nil
}

// serveInlineMix: census and advice calls that carry an inline graph from
// a seeded pool of feasible random graphs (fewer than the engine's
// 128-entry cache, and many, so that the pool's mean cost barely depends
// on the seed), plus a minority of corpus-member indices and sameview
// calls. Inline graphs get census and advice, not indices: on random graphs
// of this size election.Indices often exceeds its search limits (a 422) or
// runs for seconds.
func serveInlineMix(seed int64, ref *reference) ([]*request, error) {
	rng := rand.New(rand.NewSource(seed))
	const pool = 100
	var reqs []*request
	add := func(endpoint, path string, weight float64, body any, hash string) {
		data, _ := json.Marshal(body)
		reqs = append(reqs, &request{endpoint: endpoint, path: path, body: data, weight: weight, graph: hash})
	}
	for len(reqs) < 2*pool {
		n := 200 + rng.Intn(200)
		g := graph.RandomConnected(n, n*3/2, rng)
		if !view.Feasible(g) {
			continue
		}
		raw, err := g.MarshalJSON()
		if err != nil {
			return nil, err
		}
		h := graph.ContentHash(g)
		add("census", "/v1/census", wInlineCensus/pool, map[string]json.RawMessage{"graph": raw}, h)
		add("advice", "/v1/advice", wInlineAdvice/pool, map[string]json.RawMessage{"graph": raw}, h)
	}
	names := ref.def.Names()
	for _, n := range names {
		add("indices", "/v1/indices", wMemberIndices/float64(len(names)), map[string]string{"corpus": "default", "name": n}, "")
	}
	const pairs = 16
	for i := 0; i < pairs; i++ {
		add("sameview", "/v1/sameview", wMemberSameview/pairs, sameViewBody(rng, ref, names), "")
	}
	return reqs, nil
}

func sameViewBody(rng *rand.Rand, ref *reference, names []string) any {
	a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
	return map[string]any{
		"a":     map[string]string{"corpus": "default", "name": a},
		"v1":    rng.Intn(ref.def.Graph(a).N()),
		"b":     map[string]string{"corpus": "default", "name": b},
		"v2":    rng.Intn(ref.def.Graph(b).N()),
		"depth": rng.Intn(4),
	}
}

// daemon is one running fourshadesd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon execs fourshadesd on a free loopback port and waits until a
// whole-corpus census succeeds. It returns the time that took.
func startDaemon(bin string, seed int64, client *http.Client) (*daemon, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	start := time.Now()
	cmd := exec.Command(bin, "-addr", addr, "-seed", fmt.Sprint(seed))
	// The daemon must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	body := []byte(`{"corpus":"default"}`)
	for {
		resp, err := client.Post(d.base+"/v1/census", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("fourshadesd did not answer a census within 30s (last error %v)", err)
		}
		// Retry at once: a sub-millisecond sleep rounds up to the runtime
		// timer's millisecond, which would quantise the start time.
		runtime.Gosched()
	}
}

// stop asks the daemon to shut down and waits until it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

// daemonStats is the part of GET /v1/stats the benchmark reads.
type daemonStats struct {
	Engine engine.Stats `json:"engine"`
	Daemon struct {
		Requests int64 `json:"requests"`
		Deduped  int64 `json:"deduped"`
		Cached   int64 `json:"cached"`
	} `json:"daemon"`
}

func getStats(client *http.Client, base string) (daemonStats, error) {
	var s daemonStats
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// sample is one completed request of the measured load.
type sample struct {
	req     int // index into the distinct requests
	latency time.Duration
}

// server drives one serve workload.
type server struct {
	b      *bench
	client *http.Client
	d      *daemon
	reqs   []*request
	script []int // seeded request order, indices into reqs
	pos    int   // next script position

	seenMu         sync.Mutex
	seen           map[string]bool // inline graph contents sent so far
	repeat, inline atomic.Int64
}

func runServe(b *bench, mix serveMix) error {
	if b.daemon == "" {
		return errors.New("--daemon (the fourshadesd binary) is required")
	}
	ref := &reference{eng: engine.New(0)}
	ref.def = corpus.Default(daemonSeed, ref.eng.Feasible)
	reqs, err := mix(b.seed, ref)
	if err != nil {
		return err
	}
	for _, r := range reqs {
		if err := r.expect(ref); err != nil {
			return fmt.Errorf("reference answer for %s %s: %w", r.path, r.body, err)
		}
	}
	s := &server{
		b:    b,
		reqs: reqs,
		seen: map[string]bool{},
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: conns + 1, DisableCompression: true},
		},
	}
	defer s.client.CloseIdleConnections()
	s.script = seededScript(b.seed, reqs)

	var setups []float64
	for i := 0; i < daemonStarts; i++ {
		if s.d != nil {
			s.client.CloseIdleConnections()
			s.d.stop()
		}
		d, took, err := startDaemon(b.daemon, daemonSeed, s.client)
		if err != nil {
			return err
		}
		s.d = d
		setups = append(setups, took.Seconds())
	}
	defer s.d.stop()
	b.e2e["setup_s"] = median(setups)

	// Warm-up: every distinct request once, then one full batch, so the
	// engine and response caches hold what the measured load reads.
	for i := range reqs {
		s.do(i, nil, 0)
	}
	s.batch(nil, 0)

	if !b.traced {
		var all []sample
		walls, err := phase(b.budget, 3, func() (time.Duration, error) {
			start := time.Now()
			all = append(all, s.batch(nil, 0)...)
			return time.Since(start), nil
		})
		if err != nil {
			return err
		}
		lat := latencies(all)
		b.e2e["wall_s"] = median(walls)
		b.note("p50_ms", median(lat)*1e3, "ms")
		b.note("qps", float64(len(all))/sum(walls), "req/s")
		if p99, ok := percentile(lat, 99); ok {
			b.note("p99_ms", p99*1e3, "ms")
		}
		b.note("requests", float64(len(all)), "count")
		b.noteWalls(walls)
	} else if err := s.traced(ref); err != nil {
		return err
	}
	rss, err := procPeakRSS(s.d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	b.e2e["peak_rss_mb"] = float64(rss) / (1 << 20)
	return nil
}

// seededScript draws the request order from the weights.
func seededScript(seed int64, reqs []*request) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	cum := make([]float64, len(reqs))
	total := 0.0
	for i, r := range reqs {
		total += r.weight
		cum[i] = total
	}
	script := make([]int, scriptLen)
	for i := range script {
		x := rng.Float64() * total
		script[i] = sort.SearchFloat64s(cum, x)
		if script[i] >= len(reqs) {
			script[i] = len(reqs) - 1
		}
	}
	return script
}

// batch sends the next batchSize requests of the script over conns
// closed-loop clients and returns their samples.
func (s *server) batch(tr *tracer, reqBase int64) []sample {
	base := s.pos
	s.pos += batchSize
	var next atomic.Int64
	out := make([][]sample, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= batchSize {
					return
				}
				k := s.script[(base+i)%len(s.script)]
				if lat, ok := s.do(k, tr, reqBase+int64(base+i)); ok {
					out[w] = append(out[w], sample{k, lat})
				}
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// do sends one request, checks the answer and returns its latency.
func (s *server) do(k int, tr *tracer, id int64) (time.Duration, bool) {
	r := s.reqs[k]
	s.b.attempted.Add(1)
	if r.graph != "" {
		s.seenMu.Lock()
		if s.seen[r.graph] {
			s.repeat.Add(1)
		}
		s.seen[r.graph] = true
		s.seenMu.Unlock()
		s.inline.Add(1)
	}
	span := tr.begin("http."+r.endpoint, 0, id)
	start := time.Now()
	resp, err := s.client.Post(s.d.base+r.path, "application/json", bytes.NewReader(r.body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(start)
	tr.end(span)
	switch {
	case err != nil:
		s.b.fail("%s %s: %v", r.path, r.body, err)
		return 0, false
	case resp.StatusCode/100 != 2:
		s.b.fail("%s %s: status %d: %s", r.path, r.body, resp.StatusCode, data)
		return 0, false
	case !r.check(data):
		s.b.fail("%s %s: answer %s differs from the in-process engine's", r.path, r.body, data)
		return 0, false
	}
	return lat, true
}

// check reports whether a response equals the expected answer. A response
// byte-identical to one already checked is accepted without decoding.
func (r *request) check(data []byte) bool {
	if v := r.verified.Load(); v != nil && bytes.Equal(*v, data) {
		return true
	}
	var got any
	if err := json.Unmarshal(data, &got); err != nil || !reflect.DeepEqual(got, r.want) {
		return false
	}
	kept := append([]byte(nil), data...)
	r.verified.Store(&kept)
	return true
}

// expect computes the request's answer in process.
func (r *request) expect(ref *reference) error {
	data, _, err := handle(r, ref, nil, 0)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, &r.want)
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.latency.Seconds()
	}
	return out
}

// traced runs the per-layer measurement: an untraced phase, a traced
// phase whose daemon CPU, daemon counters and client CPU are read from
// outside, an in-process replay of every distinct request, and a healthz
// probe of the HTTP floor.
func (s *server) traced(ref *reference) error {
	b := s.b
	var plainWalls []float64
	if _, err := phase(b.budget/2, 3, func() (time.Duration, error) {
		start := time.Now()
		s.batch(nil, 0)
		d := time.Since(start)
		plainWalls = append(plainWalls, d.Seconds())
		return d, nil
	}); err != nil {
		return err
	}

	tr := newTracer()
	pid := s.d.cmd.Process.Pid
	st0, err := getStats(s.client, s.d.base)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	self0, err := procCPU(0)
	if err != nil {
		return err
	}
	s.repeat.Store(0)
	s.inline.Store(0)
	var all []sample
	walls, err := phase(b.budget/2, 3, func() (time.Duration, error) {
		start := time.Now()
		all = append(all, s.batch(tr, 1)...)
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	self1, err := procCPU(0)
	if err != nil {
		return err
	}
	st1, err := getStats(s.client, s.d.base)
	if err != nil {
		return err
	}
	n := float64(len(all))
	if n == 0 {
		return errors.New("no request completed in the traced phase")
	}

	byEndpoint := map[string][]float64{}
	for _, smp := range all {
		e := s.reqs[smp.req].endpoint
		byEndpoint[e] = append(byEndpoint[e], smp.latency.Seconds())
	}
	for e, lat := range byEndpoint {
		b.layer["fourshadesd."+e+"_p50_ms"] = median(lat) * 1e3
	}
	b.layer["fourshadesd.cpu_us_per_req"] = float64(cpu1-cpu0) / 1e3 / n
	b.layer["loadgen.cpu_us_per_req"] = float64(self1-self0) / 1e3 / n
	dreq := float64(st1.Daemon.Requests - st0.Daemon.Requests)
	if dreq > 0 {
		b.layer["fourshadesd.resp_cache_hit_share"] = float64(st1.Daemon.Cached-st0.Daemon.Cached) / dreq
		b.layer["fourshadesd.deduped_share"] = float64(st1.Daemon.Deduped-st0.Daemon.Deduped) / dreq
	}
	setEngineStats(b, subStats(st1.Engine, st0.Engine), n)
	if in := s.inline.Load(); in > 0 {
		b.layer["inline.repeat_share"] = float64(s.repeat.Load()) / float64(in)
	}
	b.layer["trace.overhead_s"] = median(walls) - median(plainWalls)
	b.note("requests", n, "count")

	// Replay every distinct request in process, then average each stage
	// over the measured requests, so each body counts as often as it was
	// sent.
	for _, r := range s.reqs {
		if err := r.measureReplay(ref, tr); err != nil {
			return err
		}
	}
	var dec, res, gdec, qry, enc, tot []float64
	for _, smp := range all {
		c := s.reqs[smp.req].replay
		dec = append(dec, c.decode)
		res = append(res, c.resolve)
		qry = append(qry, c.query)
		enc = append(enc, c.encode)
		tot = append(tot, c.total())
		if s.reqs[smp.req].graph != "" {
			gdec = append(gdec, c.graphDecode)
		}
	}
	mean := func(xs []float64) float64 { return sum(xs) / float64(max(1, len(xs))) }
	b.layer["json.decode_us"] = mean(dec)
	b.layer["corpus.resolve_us"] = mean(res)
	b.layer["graph.decode_us"] = mean(gdec)
	b.layer["engine.query_us"] = mean(qry)
	b.layer["json.encode_us"] = mean(enc)
	b.layer["http.other_us"] = median(latencies(all))*1e6 - median(tot)
	b.note("replay_us", median(tot), "us")
	b.note("p50_ms", median(latencies(all))*1e3, "ms")

	// The HTTP floor: sequential healthz round trips on one connection.
	var hz []float64
	for i := 0; i < 2000; i++ {
		id := tr.begin("http.healthz", 0, 0)
		start := time.Now()
		resp, err := s.client.Get(s.d.base + "/healthz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		hz = append(hz, time.Since(start).Seconds())
		tr.end(id)
	}
	b.layer["http.healthz_p50_ms"] = median(hz) * 1e3
	b.addSelfTimes(tr.snapshot(), len(walls))
	return b.writeLayers(tr)
}

func subStats(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		Hits:        a.Hits - b.Hits,
		Misses:      a.Misses - b.Misses,
		Steps:       a.Steps - b.Steps,
		Shortcuts:   a.Shortcuts - b.Shortcuts,
		Evictions:   a.Evictions - b.Evictions,
		UnionsBuilt: a.UnionsBuilt - b.UnionsBuilt,
	}
}

// measureReplay replays the request through handle replays times and keeps
// the median of each stage.
func (r *request) measureReplay(ref *reference, tr *tracer) error {
	var dec, tag, res, gdec, qry, enc []float64
	for i := 0; i < replays; i++ {
		_, c, err := handle(r, ref, tr, int64(-i-1))
		if err != nil {
			return err
		}
		dec = append(dec, c.decode)
		tag = append(tag, c.tagParse)
		res = append(res, c.resolve)
		gdec = append(gdec, c.graphDecode)
		qry = append(qry, c.query)
		enc = append(enc, c.encode)
	}
	if r.cacheable() {
		r.replay = replayCost{decode: median(tag), tagParse: median(tag)}
		return nil
	}
	r.replay = replayCost{median(dec), median(tag), median(res), median(gdec), median(qry), median(enc)}
	return nil
}
