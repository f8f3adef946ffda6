package main

import (
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// timedStore is an engine.Store that passes every call through to the store
// it wraps and counts and times it, so the census workload can split store
// time from the engine's own. Its spans hang under the span in parent,
// which the caller sets around each engine call.
type timedStore struct {
	inner  engine.Store
	tr     *tracer
	parent atomic.Int64
	req    atomic.Int64

	loads, saves   atomic.Int64
	loadNs, saveNs atomic.Int64
}

func (s *timedStore) Load(key string) (engine.StoredRefinement, bool, error) {
	id := s.tr.begin("store.load", int(s.parent.Load()), s.req.Load())
	t0 := time.Now()
	rec, ok, err := s.inner.Load(key)
	s.loadNs.Add(int64(time.Since(t0)))
	s.loads.Add(1)
	s.tr.end(id)
	return rec, ok, err
}

func (s *timedStore) Save(key string, rec engine.StoredRefinement) error {
	id := s.tr.begin("store.save", int(s.parent.Load()), s.req.Load())
	t0 := time.Now()
	err := s.inner.Save(key, rec)
	s.saveNs.Add(int64(time.Since(t0)))
	s.saves.Add(1)
	s.tr.end(id)
	return err
}
