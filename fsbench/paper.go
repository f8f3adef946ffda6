package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
)

// paperSeed is the experiment seed of the paper workload: the advicebench
// default, whose rendered tables the reference digests pin. The paper
// workload's inputs are the paper's fixed parameter grids, so the workload
// seed changes nothing in it.
const paperSeed = 1

// paperDigests holds "<experiment> <sha256 of Table.Render()>" per line.
//
//go:embed reference/paper.sha256
var paperDigests string

// paperExperiments are the experiments of the paper workload, in suite
// order, each run at its full parameter grid through core.RunExperiment.
// The order is fixed because the shared engine keeps what earlier
// experiments refined, so the order sets the peak resident set.
var paperExperiments = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "adversary"}

type paper struct {
	b      *bench
	digest map[string]string
	acc    paperAcc
}

type paperAcc struct {
	reps            int
	build           time.Duration
	exp             map[string]time.Duration
	states, mirrors int64
	stats           engine.Stats
	allocMB, gcs    float64
}

func parseDigests(s string) (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 {
			return nil, fmt.Errorf("reference digest line %q: want \"<experiment> <sha256>\"", sc.Text())
		}
		out[f[0]] = f[1]
	}
	return out, sc.Err()
}

func runPaper(b *bench) error {
	digests, err := parseDigests(paperDigests)
	if err != nil {
		return err
	}
	p := &paper{b: b, digest: digests}
	p.acc.exp = map[string]time.Duration{}
	if _, err := p.rep(nil); err != nil {
		return err
	}
	b.e2e["setup_s"] = time.Since(b.started).Seconds()

	if !b.traced {
		walls, err := phase(b.budget, 2, func() (time.Duration, error) { return p.rep(nil) })
		if err != nil {
			return err
		}
		b.e2e["wall_s"] = median(walls)
		b.noteWalls(walls)
	} else {
		plain, err := phase(b.budget/2, 2, func() (time.Duration, error) { return p.rep(nil) })
		if err != nil {
			return err
		}
		p.acc = paperAcc{exp: map[string]time.Duration{}}
		tr := newTracer()
		traced, err := phase(b.budget/2, 2, func() (time.Duration, error) { return p.rep(tr) })
		if err != nil {
			return err
		}
		p.layers(tr, median(traced)-median(plain))
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

// rep runs every experiment once, in order, on a fresh engine,
// and checks each rendered table against its reference digest.
func (p *paper) rep(tr *tracer) (time.Duration, error) {
	req := int64(p.acc.reps + 1)
	var ms0, ms1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	root := tr.begin("paper.rep", 0, req)
	eng := engine.New(0)

	// The corpora the corpus sweeps read: the default corpus for E1 and E2
	// (screened through the engine, as the suite does) and the small corpus
	// for the adversary, built here so their cost is visible.
	t0 := time.Now()
	id := tr.begin("corpus.build", root, req)
	def := corpus.Default(paperSeed, eng.Feasible)
	small := corpus.SmallCorpus()
	for _, c := range []*corpus.Corpus{def, small} {
		for _, name := range c.Names() {
			c.Graph(name)
		}
	}
	tr.end(id)
	build := time.Since(t0)

	var states, mirrors int64
	for _, name := range paperExperiments {
		opt := core.Options{Seed: paperSeed, Engine: eng, Corpus: def}
		if name == "adversary" {
			opt.Corpus = small
		}
		t0 := time.Now()
		id := tr.begin("core."+name, root, req)
		table, err := core.RunExperiment(name, opt)
		tr.end(id)
		d := time.Since(t0)
		p.b.attempted.Add(1)
		if err != nil {
			p.b.fail("paper %s: %v", name, err)
			continue
		}
		sum := sha256.Sum256([]byte(table.Render()))
		if got, want := hex.EncodeToString(sum[:]), p.digest[name]; got != want {
			p.b.fail("paper %s: table digest %s, reference %s", name, got, want)
		}
		if name == "adversary" {
			states, mirrors = adversaryCounts(table)
		}
		if tr != nil {
			p.acc.exp[name] += d
		}
	}
	tr.end(root)
	wall := time.Since(start)
	if tr != nil {
		runtime.ReadMemStats(&ms1)
		a := &p.acc
		a.reps++
		a.build += build
		a.states += states
		a.mirrors += mirrors
		a.stats = addStats(a.stats, eng.Stats())
		mb, gcs := memDelta(&ms0, &ms1)
		a.allocMB += mb
		a.gcs += gcs
	}
	return wall, nil
}

// adversaryCounts sums the states and mirrors columns of the adversary
// table: the interleaving explorer's visited states and mirrored ones.
func adversaryCounts(t *core.Table) (states, mirrors int64) {
	col := func(name string) int {
		for i, h := range t.Header {
			if h == name {
				return i
			}
		}
		return -1
	}
	si, mi := col("states"), col("mirrors")
	for _, row := range t.Rows {
		if si >= 0 && si < len(row) {
			v, _ := strconv.ParseInt(row[si], 10, 64)
			states += v
		}
		if mi >= 0 && mi < len(row) {
			v, _ := strconv.ParseInt(row[mi], 10, 64)
			mirrors += v
		}
	}
	return states, mirrors
}

func (p *paper) layers(tr *tracer, overhead float64) {
	a, b := p.acc, p.b
	n := float64(max(1, a.reps))
	b.layer["corpus.build_s"] = a.build.Seconds() / n
	for name, d := range a.exp {
		b.layer["core."+name+"_s"] = d.Seconds() / n
	}
	b.layer["adversary.states"] = float64(a.states) / n
	b.layer["adversary.mirrors"] = float64(a.mirrors) / n
	if d := a.exp["adversary"]; d > 0 {
		b.layer["adversary.states_per_s"] = float64(a.states) / d.Seconds()
	}
	setEngineStats(b, a.stats, n)
	b.layer["runtime.alloc_mb"] = a.allocMB / n
	b.layer["runtime.gc_cycles"] = a.gcs / n
	b.layer["trace.overhead_s"] = overhead
	b.addSelfTimes(tr.snapshot(), a.reps)
	b.note("reps", n, "count")
}
