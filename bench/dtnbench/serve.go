package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dtncache/internal/trace"
)

// Op kinds of the serve-mixed traffic, in kindNames order.
const (
	kQuery = iota
	kSatisfied
	kStatus
	kPublish
	kContacts
	kTrace
	kAdvance
	nKinds
)

var kindNames = [nKinds]string{"query", "satisfied", "status", "publish", "contacts", "trace", "advance"}

const (
	serveRate        = 1000 // open-loop ops per second
	serveWorkers     = 2    // connections and sending goroutines
	servePublishes   = 32   // items published during set-up
	serveAdvanceSec  = 120  // virtual seconds per advance op
	serveAdvanceStep = 100  // every this many ops is an advance
	serveConstraint  = 600  // query time constraint, seconds
	serveBatch       = 1000 // closed-loop ops per wall_s sample
	serveSetups      = 5    // server boots per run
	contactsPerBatch = 8    // contacts per POST /v1/contacts
	retainedTraces   = 512  // trace ops pick one of the latest issued queries
)

// kindOf draws op i's kind: every serveAdvanceStep-th op advances the
// clock; the rest are 60% query, 15% satisfied, 10% status, 5% publish,
// 5% contacts and 5% trace.
func kindOf(rng *rand.Rand, i int) int {
	if i%serveAdvanceStep == serveAdvanceStep-1 {
		return kAdvance
	}
	switch p := rng.IntN(100); {
	case p < 60:
		return kQuery
	case p < 75:
		return kSatisfied
	case p < 85:
		return kStatus
	case p < 90:
		return kPublish
	case p < 95:
		return kContacts
	default:
		return kTrace
	}
}

// client drives one dtnserved over HTTP. Op i draws everything it sends
// from a generator seeded by (seed, i), so the traffic is a function of
// the seed and of the IDs the server has handed out.
type client struct {
	base string
	hc   *http.Client
	seed uint64

	mu        sync.Mutex
	nodes     int
	published int     // data IDs 0..published-1 exist
	issued    []int   // IDs of queries the server issued
	nowSec    float64 // latest virtual time the server reported
	durSec    float64
}

func newClient(addr string, seed int64) *client {
	return &client{
		base: "http://" + addr,
		seed: uint64(seed),
		hc: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     serveWorkers,
				MaxIdleConnsPerHost: serveWorkers,
			},
		},
	}
}

// statusError is an answer with another status than the one expected.
type statusError struct {
	op   string
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("%s: HTTP %d: %s", e.op, e.code, e.body) }

// call sends one request and decodes a JSON answer into out (when not
// nil). Any status other than want is an error.
func (c *client) call(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return &statusError{method + " " + path, resp.StatusCode, strings.TrimSpace(string(b))}
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// warmUp advances the server to the middle of its trace and publishes
// the first items, as the set-up of every server the workload boots.
func (c *client) warmUp() error {
	var st struct {
		Nodes       int     `json:"nodes"`
		DurationSec float64 `json:"duration_sec"`
	}
	if err := c.call("GET", "/v1/status", nil, 200, &st); err != nil {
		return err
	}
	c.nodes, c.durSec = st.Nodes, st.DurationSec
	var adv struct {
		NowSec float64 `json:"now_sec"`
	}
	if err := c.call("POST", "/v1/advance", map[string]float64{"to_sec": st.DurationSec / 2}, 200, &adv); err != nil {
		return err
	}
	c.nowSec = adv.NowSec
	rng := rand.New(rand.NewPCG(c.seed, 1<<63))
	for range servePublishes {
		if err := c.publish(rng); err != nil {
			return err
		}
	}
	return nil
}

func (c *client) publish(rng *rand.Rand) error {
	var out struct {
		DataID int `json:"data_id"`
	}
	if err := c.call("POST", "/v1/publish", map[string]int{"source": rng.IntN(c.nodes)}, 200, &out); err != nil {
		return err
	}
	c.mu.Lock()
	c.published = max(c.published, out.DataID+1)
	c.mu.Unlock()
	return nil
}

// do sends op i.
func (c *client) do(i int) (int, error) {
	rng := rand.New(rand.NewPCG(c.seed, uint64(i)))
	kind := kindOf(rng, i)
	c.mu.Lock()
	nodes, published, now, dur := c.nodes, c.published, c.nowSec, c.durSec
	var queryID, recentID int
	if n := len(c.issued); n > 0 {
		queryID = c.issued[rng.IntN(n)]
		recentID = c.issued[n-1-rng.IntN(min(n, retainedTraces))]
	}
	c.mu.Unlock()
	switch kind {
	case kQuery:
		var out struct {
			QueryID int  `json:"query_id"`
			Issued  bool `json:"issued"`
		}
		body := map[string]any{"requester": rng.IntN(nodes), "data": rng.IntN(published), "constraint_sec": serveConstraint}
		if err := c.call("POST", "/v1/query", body, 200, &out); err != nil {
			return kind, err
		}
		if out.Issued {
			c.mu.Lock()
			c.issued = append(c.issued, out.QueryID)
			c.mu.Unlock()
		}
		return kind, nil
	case kSatisfied:
		return kind, c.call("GET", "/v1/satisfied?id="+strconv.Itoa(queryID), nil, 200, nil)
	case kStatus:
		return kind, c.call("GET", "/v1/status", nil, 200, nil)
	case kPublish:
		return kind, c.publish(rng)
	case kContacts:
		type contact struct {
			A        int     `json:"a"`
			B        int     `json:"b"`
			StartSec float64 `json:"start_sec"`
			EndSec   float64 `json:"end_sec"`
		}
		cs := make([]contact, contactsPerBatch)
		for k := range cs {
			a := rng.IntN(nodes)
			b := (a + 1 + rng.IntN(nodes-1)) % nodes
			start := min(now+600*rng.Float64(), dur-600)
			cs[k] = contact{a, b, start, start + 60 + 540*rng.Float64()}
		}
		return kind, c.call("POST", "/v1/contacts", map[string]any{"contacts": cs}, 202, nil)
	case kTrace:
		// A query that has not moved yet has no spans, and an old one may
		// have left the retention window: for both, 404 is the right answer.
		err := c.call("GET", "/v1/trace/"+strconv.Itoa(recentID), nil, 200, nil)
		if se := (*statusError)(nil); errors.As(err, &se) && se.code == http.StatusNotFound {
			return kind, nil
		}
		return kind, err
	default:
		var out struct {
			NowSec float64 `json:"now_sec"`
		}
		if err := c.call("POST", "/v1/advance", map[string]float64{"by_sec": serveAdvanceSec}, 200, &out); err != nil {
			return kind, err
		}
		c.mu.Lock()
		c.nowSec = max(c.nowSec, out.NowSec)
		c.mu.Unlock()
		return kind, nil
	}
}

// issuedCount is the number of queries the server reported as issued.
func (c *client) issuedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.issued)
}

// scrape reads one counter from a Prometheus text page.
func (c *client) scrape(base, path, name string) (float64, error) {
	resp, err := c.hc.Get(base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, nil // an untouched counter is not registered yet
}

func (c *client) get(path string) ([]byte, int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// serveRun is what one serve-mixed run leaves for its checks and its
// traced split.
type serveRun struct {
	open, closed []sample
	report       []byte // GET /report after the loops
	traceFile    string
	walPath      string
	finalSec     float64
}

// serveLoad writes the trace file and boots dtnserved on it serveSetups
// times, each boot one set-up sample; all but the last server are shut
// down again. Against the last one it runs the open loop for half the
// run length, then a closed loop of twice as many ops (20000 at
// --seconds 20, about as long on a 2-vCPU host), then checks and stops
// it. Both loops send a fixed number of ops, so the virtual time they
// cover, and the engine state each op meets, do not depend on how fast
// the server answers.
func serveLoad(r *run) (*serveRun, error) {
	var (
		srv    *served
		c      *client
		setups []float64
	)
	traceFile := filepath.Join(r.dir, r.workload+".dtnc")
	for k := range serveSetups {
		t0 := time.Now()
		if _, err := writePreset(traceFile, trace.Infocom06); err != nil {
			return nil, err
		}
		s, err := startServed(r.bin, r.dir, traceFile, r.seed, strconv.Itoa(k))
		if err != nil {
			return nil, err
		}
		cl := newClient(s.addr, r.seed)
		r.attempted += 2 + servePublishes
		if err := cl.warmUp(); err != nil {
			r.failed++
			s.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < serveSetups-1 {
			if _, err := s.stop(); err != nil {
				return nil, err
			}
			cl.hc.CloseIdleConnections()
			os.Remove(s.wal)
			continue
		}
		srv, c = s, cl
	}
	r.set("setup_s", median(setups))
	out := &serveRun{traceFile: traceFile, walPath: srv.wal}
	err := func() error {
		n := int(serveRate * r.seconds.Seconds() / 2)
		var backlog int
		out.open, backlog = openLoop(serveRate, n, serveWorkers, 0, c.do)
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return err
		}
		out.closed = closedLoop(2*n, serveWorkers, n, c.do)
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return err
		}
		r.summarizeServe(out, backlog, (cpu1-cpu0)*serveBatch/float64(len(out.closed)))
		return r.checkServed(c, srv, out)
	}()
	st, stopErr := srv.stop()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, stopErr
	}
	r.set("peak_rss_mb", float64(st.SysUsage().(*syscall.Rusage).Maxrss)/1024)
	return out, nil
}
