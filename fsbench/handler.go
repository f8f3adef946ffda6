package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/algorithms"
	"repro/internal/election"
	"repro/internal/engine"
	"repro/internal/graph"
)

// This file replays fourshadesd's request handling in process: the same
// library calls in the same order, split into the stages the per-layer
// metrics name. It gives the serve workloads their expected answers and
// their in-process cost per stage.

// graphRef is the daemon's graph reference: a corpus member or an inline
// graph.
type graphRef struct {
	Corpus string          `json:"corpus,omitempty"`
	Name   string          `json:"name,omitempty"`
	Graph  json.RawMessage `json:"graph,omitempty"`
}

type censusRowJSON struct {
	Name               string `json:"name"`
	Nodes              int    `json:"nodes"`
	StabilisationDepth int    `json:"stabilisation_depth"`
	ClassesAtStable    int    `json:"classes_at_stabilisation"`
	Feasible           bool   `json:"feasible"`
	MinDepthSomeUnique int    `json:"min_depth_some_unique"`
}

func censusJSON(eng *engine.Engine, name string, g *graph.Graph) censusRowJSON {
	r := censusRowOf(name, eng, g)
	return censusRowJSON{r.Name, r.Nodes, r.StableAt, r.ClassesStable, r.Feasible, r.MinUnique}
}

type adviceRowJSON struct {
	Name  string `json:"name"`
	Bits  int    `json:"advice_bits,omitempty"`
	Error string `json:"error,omitempty"`
}

func adviceJSON(eng *engine.Engine, name string, g *graph.Graph) adviceRowJSON {
	bits, err := algorithms.SelectionAdviceSize(eng, g)
	if err != nil {
		return adviceRowJSON{Name: name, Error: err.Error()}
	}
	return adviceRowJSON{Name: name, Bits: bits}
}

// cacheable reports whether the warm daemon answers the request from its
// response cache: census and advice of corpus members and whole corpora.
// It then parses the body once and does no resolve, query or encode.
func (r *request) cacheable() bool {
	return (r.endpoint == "census" || r.endpoint == "advice" || r.endpoint == "corpus_census") && r.graph == ""
}

// handle answers the request in process and returns the encoded response
// and the time of each stage, in microseconds.
func handle(r *request, ref *reference, tr *tracer, id int64) ([]byte, replayCost, error) {
	var c replayCost
	root := tr.begin("replay."+r.endpoint, 0, id)
	defer tr.end(root)
	stage := func(name string, dst *float64, fn func() error) error {
		sid := tr.begin(name, root, id)
		t0 := time.Now()
		err := fn()
		*dst = float64(time.Since(t0).Nanoseconds()) / 1e3
		tr.end(sid)
		return err
	}
	// An inline graph is decoded in a stage of its own, not inside
	// corpus.resolve, so that neither layer's time counts the other's.
	resolve := func(ref2 graphRef) (name string, g *graph.Graph, err error) {
		if len(ref2.Graph) > 0 {
			err = stage("graph.decode", &c.graphDecode, func() error {
				g = new(graph.Graph)
				return g.UnmarshalJSON(ref2.Graph)
			})
			return "inline", g, err
		}
		err = stage("corpus.resolve", &c.resolve, func() error {
			if ref2.Corpus != "default" || !ref.def.Has(ref2.Name) {
				return fmt.Errorf("unknown graph %s/%s", ref2.Corpus, ref2.Name)
			}
			name, g = ref2.Name, ref.def.Graph(ref2.Name)
			return nil
		})
		return name, g, err
	}

	var val any
	switch r.endpoint {
	case "census", "advice", "corpus_census":
		// The daemon parses census and advice bodies twice: once to decide
		// whether the response cache applies (cacheTag), once to answer.
		var req graphRef
		err := stage("json.decode", &c.tagParse, func() error { return json.Unmarshal(r.body, &graphRef{}) })
		if err == nil {
			err = stage("json.decode", &c.decode, func() error { return json.Unmarshal(r.body, &req) })
		}
		c.decode += c.tagParse
		if err != nil {
			return nil, c, err
		}
		row := func(name string, g *graph.Graph) any {
			if r.endpoint == "advice" {
				return adviceJSON(ref.eng, name, g)
			}
			return censusJSON(ref.eng, name, g)
		}
		var rows []any
		if req.Corpus != "" && req.Name == "" && len(req.Graph) == 0 {
			stage("engine.query", &c.query, func() error {
				for _, name := range ref.def.Names() {
					rows = append(rows, row(name, ref.def.Graph(name)))
				}
				return nil
			})
		} else {
			name, g, err := resolve(req)
			if err != nil {
				return nil, c, err
			}
			stage("engine.query", &c.query, func() error {
				rows = []any{row(name, g)}
				return nil
			})
		}
		val = map[string]any{"rows": rows}
	case "indices":
		var req struct {
			graphRef
			Tasks           []string `json:"tasks,omitempty"`
			MaxPathsPerNode int      `json:"max_paths_per_node,omitempty"`
		}
		if err := stage("json.decode", &c.decode, func() error { return json.Unmarshal(r.body, &req) }); err != nil {
			return nil, c, err
		}
		name, g, err := resolve(req.graphRef)
		if err != nil {
			return nil, c, err
		}
		err = stage("engine.query", &c.query, func() error {
			idx, err := election.Indices(g, election.Options{Engine: ref.eng, MaxPathsPerNode: req.MaxPathsPerNode})
			if err != nil {
				return err
			}
			out := map[string]int{}
			for task, v := range idx {
				out[task.String()] = v
			}
			val = map[string]any{"name": name, "indices": out}
			return nil
		})
		if err != nil {
			return nil, c, err
		}
	case "sameview":
		var req struct {
			A     graphRef `json:"a"`
			V1    int      `json:"v1"`
			B     graphRef `json:"b"`
			V2    int      `json:"v2"`
			Depth int      `json:"depth"`
		}
		if err := stage("json.decode", &c.decode, func() error { return json.Unmarshal(r.body, &req) }); err != nil {
			return nil, c, err
		}
		var ga, gb *graph.Graph
		err := stage("corpus.resolve", &c.resolve, func() error {
			if !ref.def.Has(req.A.Name) || !ref.def.Has(req.B.Name) {
				return fmt.Errorf("unknown sameview members %q, %q", req.A.Name, req.B.Name)
			}
			ga, gb = ref.def.Graph(req.A.Name), ref.def.Graph(req.B.Name)
			return nil
		})
		if err != nil {
			return nil, c, err
		}
		stage("engine.query", &c.query, func() error {
			val = map[string]bool{"same": ref.eng.SameViewAcross(ga, req.V1, gb, req.V2, req.Depth)}
			return nil
		})
	default:
		return nil, c, fmt.Errorf("unknown endpoint %q", r.endpoint)
	}
	var data []byte
	err := stage("json.encode", &c.encode, func() error {
		var err error
		data, err = json.Marshal(val)
		data = append(data, '\n')
		return err
	})
	return data, c, err
}
