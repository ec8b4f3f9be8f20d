package main

import (
	"bytes"
	"net/http"
	"testing"

	"dtncache/internal/engine"
	"dtncache/internal/obs"
	"dtncache/internal/trace"
)

// fuzzEndpoints are the request decoders FuzzServeRequests drives.
var fuzzEndpoints = []string{"/v1/publish", "/v1/query", "/v1/advance", "/v1/contacts"}

// FuzzServeRequests posts arbitrary bodies to the mutating endpoints of
// a fresh live server. Every response must be a 2xx or a 4xx — never a
// panic or a 5xx — and a rejected request must leave /v1/status byte
// for byte as it was.
func FuzzServeRequests(f *testing.F) {
	seeds := []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"source":3}`},
		{0, `{"source":3,"size_bits":1e6,"lifetime_sec":3600,"op_id":"p1"}`},
		{0, `{"source":-1}`},
		{0, `{"source":1e400}`},
		{0, `{"sauce":3}`},
		{1, `{"requester":7,"data":0}`},
		{1, `{"requester":7,"data":99,"constraint_sec":-5}`},
		{1, `{"requester":7,"data":0} {"requester":8}`},
		{2, `{"by_sec":600}`},
		{2, `{"to_sec":7200}`},
		{2, `{"to_sec":10,"by_sec":10}`},
		{2, `{"by_sec":-1e308}`},
		{3, `{"contacts":[{"a":1,"b":2,"start_sec":4000,"end_sec":4120}]}`},
		{3, `{"contacts":[{"a":1,"b":1,"start_sec":4000,"end_sec":4120}]}`},
		{3, `{"contacts":[{"a":1,"b":2,"start_sec":5,"end_sec":1e12}]}`},
		{3, `{"contacts":[]}`},
		{3, `{not json`},
		{3, ``},
	}
	for _, s := range seeds {
		f.Add(s.endpoint, []byte(s.body))
	}
	tr, err := trace.GeneratePreset(trace.Infocom05, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		rec := obs.NewRecorder(nil)
		eng, err := engine.New(engine.Config{Trace: tr, Live: true, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		s := newServer(eng, rec.Registry(), nil, defaultServeConfig())
		before := do(s, "GET", "/v1/status", "").Body.String()
		target := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		w := do(s, "POST", target, string(body))
		switch {
		case w.Code >= 200 && w.Code < 300:
		case w.Code >= 400 && w.Code < 500:
			if after := do(s, "GET", "/v1/status", "").Body.String(); after != before {
				t.Errorf("rejected %s (%d) changed /v1/status:\nbefore %s\nafter  %s", target, w.Code, before, after)
			}
		default:
			t.Errorf("POST %s %q: status %d, body %s", target, body, w.Code, bytes.TrimSpace(w.Body.Bytes()))
		}
		if w.Code == http.StatusOK && w.Body.Len() == 0 {
			t.Errorf("POST %s %q: 200 with an empty body", target, body)
		}
	})
}
