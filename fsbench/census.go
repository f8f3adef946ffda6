package main

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/view"
)

// censusRungs is the census workload's rung selection, in census order:
// the streamed largerandom rungs from 5k to 200k nodes and the streamed
// 512×512 torus (262k nodes). The sizes and the order are fixed, so the
// peak resident set does not depend on the seed; the seed draws the
// largerandom graphs. The rungs are generated once, in set-up, and every
// repetition censuses the same graphs.
var censusRungs = []struct{ family, name string }{
	{"largerandom", "largerandom-5000"},
	{"largerandom", "largerandom-20000"},
	{"largerandom", "largerandom-50000"},
	{"largerandom", "largerandom-200000"},
	{"torus", "torus-512x512"},
}

// buildRungs generates the rung graphs from the streamed largerandom and
// torus corpora and returns them with the time Corpus.Graph took. The
// corpora drop their copies; the census keeps the graphs.
func buildRungs(seed int64) ([]*graph.Graph, time.Duration) {
	lr, torus := corpus.LargeRandomCorpus(seed), corpus.TorusCorpus()
	graphs := make([]*graph.Graph, len(censusRungs))
	var took time.Duration
	for i, r := range censusRungs {
		src := lr
		if r.family == "torus" {
			src = torus
		}
		t0 := time.Now()
		graphs[i] = src.Graph(r.name)
		took += time.Since(t0)
		src.ReleaseEntry(r.name)
	}
	return graphs, took
}

// censusRow is one graph's census, the same quantities the census
// experiment and the daemon's /v1/census report.
type censusRow struct {
	Name          string
	Nodes         int
	ClassesAt1    int
	StableAt      int
	ClassesStable int
	Feasible      bool
	MinUnique     int
}

func censusRowOf(name string, eng *engine.Engine, g *graph.Graph) censusRow {
	stab := eng.StabilisationDepth(g)
	minUnique, _ := eng.MinDepthSomeUnique(g)
	return censusRow{
		Name:          name,
		Nodes:         g.N(),
		ClassesAt1:    eng.NumClassesAt(g, 1),
		StableAt:      stab,
		ClassesStable: eng.NumClassesAt(g, stab),
		Feasible:      eng.Feasible(g),
		MinUnique:     minUnique,
	}
}

// census is the census workload: a cold census of the rung selection on a
// fresh engine writing through to a fresh FileStore, then a warm restart
// that reopens the store and censuses the rungs again.
type census struct {
	b      *bench
	tmp    string
	graphs []*graph.Graph // the rungs, in censusRungs order
	build  float64        // generating them, seconds: the median over set-ups
	rest   []float64      // warm restart wall, seconds
	acc    censusAcc
}

// censusAcc sums the traced per-layer measurements over repetitions.
type censusAcc struct {
	reps               int
	hash, kernel, eng  time.Duration
	open, load, save   time.Duration
	loads, saves       int64
	logBytes           int64
	nodeLevels, active int64
	stats              engine.Stats
	allocMB, gcs       float64
}

// censusSetups is how many times the census workload sets up.
const censusSetups = 3

func runCensus(b *bench) error {
	c := &census{b: b, tmp: filepath.Join(b.root, ".bench_build", "tmp")}
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		return err
	}
	// Set-up generates the rungs and runs one unmeasured warm-up
	// repetition, with the warm restart and the oracle check. Untraced
	// repetitions skip both; traced ones run them too. Set-up runs
	// censusSetups times; setup_s is the time from process start to the
	// first set-up plus the median set-up.
	before := time.Since(b.started).Seconds()
	var setups, builds []float64
	for i := 0; i < censusSetups; i++ {
		if c.graphs != nil {
			// Free the previous set-up's graphs, so they do not count
			// in the peak resident set.
			c.graphs = nil
			runtime.GC()
		}
		t0 := time.Now()
		var build time.Duration
		c.graphs, build = buildRungs(b.seed)
		if _, err := c.rep(nil, true); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, build.Seconds())
	}
	b.e2e["setup_s"] = before + median(setups)
	c.build = median(builds)
	restart := median(c.rest)
	c.rest = nil

	if !b.traced {
		walls, err := phase(b.budget, 3, func() (time.Duration, error) { return c.rep(nil, false) })
		if err != nil {
			return err
		}
		b.e2e["wall_s"] = median(walls)
		b.note("restart_s", restart, "s")
		b.noteWalls(walls)
	} else {
		plain, err := phase(b.budget/2, 2, func() (time.Duration, error) { return c.rep(nil, false) })
		if err != nil {
			return err
		}
		c.acc = censusAcc{}
		tr := newTracer()
		traced, err := phase(b.budget/2, 2, func() (time.Duration, error) { return c.rep(tr, true) })
		if err != nil {
			return err
		}
		c.layers(tr, median(traced)-median(plain))
		if err := b.writeLayers(tr); err != nil {
			return err
		}
	}
	rss, err := procPeakRSS(0)
	if err != nil {
		return err
	}
	b.e2e["peak_rss_mb"] = float64(rss) / (1 << 20)
	return nil
}

// rep runs one cold census and returns its wall time: the store's open and
// close and the engine's census of every rung. With check, rep also checks
// every row against oracleRow and then runs the warm restart. With a tracer
// it also times the content hash and the view kernel alone on every rung.
// Neither the check nor that instrumentation is part of the wall time.
func (c *census) rep(tr *tracer, check bool) (time.Duration, error) {
	dir, err := os.MkdirTemp(c.tmp, "census-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	req := int64(c.acc.reps + 1)
	// Every repetition starts from a collected heap, as a census run in a
	// fresh process does, so that it does not pay for the last one's garbage.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}

	start := time.Now()
	var extra time.Duration // time inside the repetition that its wall time leaves out
	root := tr.begin("census.cold", 0, req)
	t0 := time.Now()
	id := tr.begin("store.open", root, req)
	st, err := store.Open(dir)
	tr.end(id)
	open := time.Since(t0)
	if err != nil {
		return 0, err
	}
	ts := &timedStore{inner: st, tr: tr}
	ts.req.Store(req)
	eng := engine.New(0)
	eng.SetStore(ts)
	rows := make([]censusRow, len(censusRungs))
	var engTime time.Duration
	for i, r := range censusRungs {
		g := c.graphs[i]
		kernel := -1
		if tr != nil {
			var d time.Duration
			kernel, d = c.instrument(tr, root, req, g)
			extra += d
		}
		t1 := time.Now()
		id := tr.begin("engine.census", root, req)
		ts.parent.Store(int64(id))
		rows[i] = censusRowOf(r.name, eng, g)
		tr.end(id)
		engTime += time.Since(t1)
		c.checkRow(r.family, rows[i])
		if check {
			t0 := time.Now()
			id := tr.begin("check.oracle", root, req)
			c.crossCheck(rows[i], kernel, g)
			tr.end(id)
			extra += time.Since(t0)
		}
		eng.Forget(g)
	}
	ts.parent.Store(0)
	id = tr.begin("store.close", root, req)
	size := st.Stats().Bytes
	err = st.Close()
	tr.end(id)
	tr.end(root)
	wall := time.Since(start) - extra
	if err != nil {
		return 0, err
	}
	stats := eng.Stats()

	if check {
		d, err := c.restart(tr, dir, req, rows)
		if err != nil {
			return 0, err
		}
		c.rest = append(c.rest, d.Seconds())
	}

	if tr != nil {
		runtime.ReadMemStats(&ms1)
		a := &c.acc
		a.reps++
		a.eng += engTime
		a.open += open
		a.load += time.Duration(ts.loadNs.Load())
		a.save += time.Duration(ts.saveNs.Load())
		a.loads += ts.loads.Load()
		a.saves += ts.saves.Load()
		a.logBytes += size
		a.stats = addStats(a.stats, stats)
		mb, gcs := memDelta(&ms0, &ms1)
		a.allocMB += mb
		a.gcs += gcs
	}
	return wall, nil
}

// checkRow counts one census operation and checks what every row must
// satisfy: tori are vertex-transitive (one class, infeasible, no unique
// view), and a graph is feasible exactly when its stable partition is
// discrete.
func (c *census) checkRow(family string, r censusRow) {
	c.b.attempted.Add(1)
	if r.Feasible != (r.ClassesStable == r.Nodes) {
		c.b.fail("census %s: feasible=%v but %d of %d classes at stabilisation", r.Name, r.Feasible, r.ClassesStable, r.Nodes)
	}
	if family == "torus" && (r.Feasible || r.ClassesStable != 1 || r.MinUnique != -1) {
		c.b.fail("census %s: torus row %+v is not vertex-transitive", r.Name, r)
	}
}

// restart reopens the store the cold census wrote, censuses the same rungs
// on a fresh engine and checks that every row equals the cold one and that
// the engine refined nothing (every level came from the store).
func (c *census) restart(tr *tracer, dir string, req int64, cold []censusRow) (time.Duration, error) {
	start := time.Now()
	root := tr.begin("census.restart", 0, req)
	t0 := time.Now()
	id := tr.begin("store.open", root, req)
	st, err := store.Open(dir)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	ts := &timedStore{inner: st, tr: tr}
	ts.req.Store(req)
	open := time.Since(t0)
	eng := engine.New(0)
	eng.SetStore(ts)
	for i, r := range censusRungs {
		g := c.graphs[i]
		id := tr.begin("engine.census", root, req)
		ts.parent.Store(int64(id))
		row := censusRowOf(r.name, eng, g)
		tr.end(id)
		c.b.attempted.Add(1)
		if row != cold[i] {
			c.b.fail("census restart %s: warm row %+v differs from cold row %+v", r.name, row, cold[i])
		}
		eng.Forget(g)
	}
	err = st.Close()
	tr.end(root)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	if s := eng.Stats().Steps; s != 0 {
		c.b.attempted.Add(1)
		c.b.fail("census restart: engine refined %d levels, want 0 (all from the store)", s)
	}
	if tr != nil {
		c.acc.open += open
		c.acc.load += time.Duration(ts.loadNs.Load())
		c.acc.loads += ts.loads.Load()
	}
	return d, nil
}

// instrument times the content hash and the view-refinement kernel alone on
// one rung. It returns the kernel's stabilisation depth and how long it
// took, so the caller can leave it out of the repetition's wall time.
func (c *census) instrument(tr *tracer, parent int, req int64, g *graph.Graph) (int, time.Duration) {
	start := time.Now()
	t0 := time.Now()
	id := tr.begin("graph.hash", parent, req)
	graph.ContentHash(g)
	tr.end(id)
	c.acc.hash += time.Since(t0)

	t0 = time.Now()
	id = tr.begin("view.refine", parent, req)
	k := refineKernel(g)
	tr.end(id)
	c.acc.kernel += time.Since(t0)
	c.acc.nodeLevels += k.nodeLevels
	c.acc.active += k.active
	return k.stableAt, time.Since(start)
}

// crossCheck checks an engine row against oracleRow, and the kernel's
// stabilisation depth against the oracle's unless kernel is -1.
func (c *census) crossCheck(row censusRow, kernel int, g *graph.Graph) {
	want := oracleRow(row.Name, g)
	c.b.attempted.Add(1)
	if row != want {
		c.b.fail("census %s: engine row %+v differs from view.Incremental's %+v", row.Name, row, want)
	}
	if kernel >= 0 {
		c.b.attempted.Add(1)
		if kernel != want.StableAt {
			c.b.fail("census %s: kernel stabilised at depth %d, view.Incremental at %d", row.Name, kernel, want.StableAt)
		}
	}
}

// oracleRow computes a census row with view.Incremental, which refines by a
// full pass per level (RefineStep) and shares neither the engine's tables
// nor the kernel's persistent partition.
func oracleRow(name string, g *graph.Graph) censusRow {
	inc := view.NewIncremental(g)
	r := censusRow{Name: name, Nodes: g.N(), MinUnique: -1}
	for !inc.Stabilised() {
		if r.MinUnique < 0 && inc.HasUnique() {
			r.MinUnique = inc.Depth()
		}
		inc.Step()
		if inc.Depth() == 1 {
			r.ClassesAt1 = inc.NumClasses()
		}
	}
	r.StableAt = inc.Depth() - 1
	r.ClassesStable = inc.NumClasses()
	r.Feasible = r.ClassesStable == r.Nodes
	return r
}

// kernelRun is what driving the refinement kernel level by level measured.
type kernelRun struct {
	stableAt   int
	nodeLevels int64 // Σ over computed levels of n
	active     int64 // Σ over computed levels of the nodes still in non-singleton blocks
}

// refineKernel refines g level by level with the persistent partition until
// the class count stops growing, as view.Refine does, but without keeping
// the tables.
func refineKernel(g *graph.Graph) kernelRun {
	cur, num := view.DegreeClasses(g)
	p := view.NewLevelPartition(cur, num)
	sigs := view.GetPairSigs(g)
	defer view.PutPairSigs(sigs)
	var k kernelRun
	for h := 0; ; h++ {
		k.active += int64(p.ActiveNodes())
		k.nodeLevels += int64(g.N())
		next, n := p.Step(g, sigs, cur, 1)
		if n == num {
			k.stableAt = h
			return k
		}
		cur, num = next, n
	}
}

// layers turns the traced repetitions into the per-layer metrics.
func (c *census) layers(tr *tracer, overhead float64) {
	a, b := c.acc, c.b
	n := float64(max(1, a.reps))
	per := func(d time.Duration) float64 { return d.Seconds() / n }
	b.layer["corpus.build_s"] = c.build
	b.layer["graph.hash_s"] = per(a.hash)
	b.layer["view.refine_s"] = per(a.kernel)
	b.layer["view.nodes_levels"] = float64(a.nodeLevels) / n
	if a.kernel > 0 {
		b.layer["view.nodes_levels_per_s"] = float64(a.nodeLevels) / a.kernel.Seconds()
	}
	if a.nodeLevels > 0 {
		b.layer["view.active_share"] = float64(a.active) / float64(a.nodeLevels)
	}
	b.layer["engine.refine_s"] = per(a.eng)
	b.layer["engine.overhead_s"] = per(a.eng - a.kernel - a.save)
	setEngineStats(b, a.stats, n)
	b.layer["store.open_s"] = per(a.open)
	b.layer["store.load_s"] = per(a.load)
	b.layer["store.save_s"] = per(a.save)
	b.layer["store.loads"] = float64(a.loads) / n
	b.layer["store.saves"] = float64(a.saves) / n
	b.layer["store.log_mb"] = float64(a.logBytes) / n / (1 << 20)
	b.layer["store.restart_s"] = median(c.rest)
	b.layer["runtime.alloc_mb"] = a.allocMB / n
	b.layer["runtime.gc_cycles"] = a.gcs / n
	b.layer["trace.overhead_s"] = overhead
	b.addSelfTimes(tr.snapshot(), a.reps)
	b.note("reps", n, "count")
}

// addStats sums two engine counter snapshots.
func addStats(a, b engine.Stats) engine.Stats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Steps += b.Steps
	a.Shortcuts += b.Shortcuts
	a.Evictions += b.Evictions
	a.UnionsBuilt += b.UnionsBuilt
	return a
}

// setEngineStats sets the engine counters, divided by n operations.
func setEngineStats(b *bench, s engine.Stats, n float64) {
	b.layer["engine.hits"] = float64(s.Hits) / n
	b.layer["engine.misses"] = float64(s.Misses) / n
	b.layer["engine.steps"] = float64(s.Steps) / n
	b.layer["engine.shortcuts"] = float64(s.Shortcuts) / n
	b.layer["engine.evictions"] = float64(s.Evictions) / n
	b.layer["engine.unions_built"] = float64(s.UnionsBuilt) / n
}
