package main

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// fakeStore is an in-memory engine.Store that can be told to fail.
type fakeStore struct {
	m   map[string]engine.StoredRefinement
	err error
}

func (f *fakeStore) Load(key string) (engine.StoredRefinement, bool, error) {
	rec, ok := f.m[key]
	return rec, ok, f.err
}

func (f *fakeStore) Save(key string, rec engine.StoredRefinement) error {
	if f.err != nil {
		return f.err
	}
	f.m[key] = rec
	return nil
}

func TestTimedStorePassesThroughAndCounts(t *testing.T) {
	inner := &fakeStore{m: map[string]engine.StoredRefinement{}}
	tr := newTracer()
	s := &timedStore{inner: inner, tr: tr}
	parent := tr.begin("engine.census", 0, 3)
	s.parent.Store(int64(parent))
	s.req.Store(3)

	rec := engine.StoredRefinement{Classes: [][]int{{0, 0, 1}}, NumClass: []int{2}, StableAt: 0}
	if err := s.Save("k", rec); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load("k")
	if err != nil || !ok || !reflect.DeepEqual(got, rec) {
		t.Fatalf("Load = %+v, %v, %v; want the saved record", got, ok, err)
	}
	if _, ok, _ := s.Load("missing"); ok {
		t.Error("Load of an unknown key reported ok")
	}
	if s.loads.Load() != 2 || s.saves.Load() != 1 {
		t.Errorf("loads %d saves %d, want 2 and 1", s.loads.Load(), s.saves.Load())
	}
	if s.loadNs.Load() <= 0 || s.saveNs.Load() <= 0 {
		t.Errorf("times not recorded: load %d ns, save %d ns", s.loadNs.Load(), s.saveNs.Load())
	}

	inner.err = errors.New("disk gone")
	if err := s.Save("k2", rec); !errors.Is(err, inner.err) {
		t.Errorf("Save error = %v, want the inner error", err)
	}
	if _, _, err := s.Load("k"); !errors.Is(err, inner.err) {
		t.Errorf("Load error = %v, want the inner error", err)
	}
	tr.end(parent)

	spans := tr.snapshot()
	if len(spans) != 6 {
		t.Fatalf("%d spans, want 6: %+v", len(spans), spans)
	}
	for _, sp := range spans[1:] {
		if sp.Parent != parent || sp.Req != 3 || sp.layer() != "store" {
			t.Errorf("store span %+v not under the engine span of request 3", sp)
		}
	}
}

func TestTimedStoreDrivesEngine(t *testing.T) {
	inner := &fakeStore{m: map[string]engine.StoredRefinement{}}
	s := &timedStore{inner: inner}
	eng := engine.New(1)
	eng.SetStore(s)
	g := testGraph()
	eng.StabilisationDepth(g)
	if s.loads.Load() == 0 || s.saves.Load() == 0 || len(inner.m) == 0 {
		t.Fatalf("engine did not go through the wrapper: loads %d saves %d records %d",
			s.loads.Load(), s.saves.Load(), len(inner.m))
	}
	warm := engine.New(1)
	warm.SetStore(s)
	warm.StabilisationDepth(g)
	if st := warm.Stats(); st.Steps != 0 || st.StoreHits == 0 {
		t.Errorf("warm engine stats %+v: want 0 steps and a store hit", st)
	}
}
