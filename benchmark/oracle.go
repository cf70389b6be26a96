package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"

	"ipscope/internal/query"
	"ipscope/internal/serve"
)

// oracle answers every read URL in-process, from the batch index built
// over the same dataset, through the same handler a single node
// serves with — the reference every fleet must match byte for byte.
type oracle struct {
	h http.Handler
	// modEpoch compares bodies with the epoch splice removed, the
	// normalisation internal/cluster's equivalence tests use: a routed
	// answer carries the minimum epoch over the ranges consulted, and a
	// live node's epochs count days, so only the rest is comparable.
	modEpoch bool
}

func newOracle(idx *query.Index, modEpoch bool) *oracle {
	return &oracle{h: serve.New(idx, serve.Config{}).Handler(), modEpoch: modEpoch}
}

var epochField = regexp.MustCompile(`"epoch":\d+,?`)

func (o *oracle) norm(body []byte) []byte {
	if o.modEpoch {
		return epochField.ReplaceAll(body, nil)
	}
	return body
}

// matches reports whether a fleet's response equals the reference.
func (o *oracle) matches(s sampled) bool {
	rec := httptest.NewRecorder()
	o.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, s.url, nil))
	return rec.Code == s.status && bytes.Equal(o.norm(rec.Body.Bytes()), o.norm(s.body))
}
