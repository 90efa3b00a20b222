package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tracescale/internal/flow"
	"tracescale/internal/spec"
	"tracescale/internal/synth"
)

var update = flag.Bool("update", false, "rewrite golden files")

// logBuf is a concurrency-safe writer the daemon under test logs into.
type logBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon runs the daemon on a free port and returns its base URL, a
// cancel that triggers graceful shutdown, and a wait for run's error.
func startDaemon(t *testing.T, out *logBuf, extraArgs ...string) (url string, shutdown func(), wait func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, args, out) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if s := out.String(); strings.Contains(s, "listening on ") {
			addr := strings.TrimSpace(strings.TrimPrefix(s[strings.Index(s, "listening on "):], "listening on "))
			if i := strings.IndexByte(addr, '\n'); i >= 0 {
				addr = addr[:i]
			}
			return "http://" + addr, cancel, func() error {
				select {
				case err := <-errc:
					return err
				case <-time.After(10 * time.Second):
					t.Fatal("daemon did not stop within 10s")
					return nil
				}
			}
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited before listening: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never started listening; output:\n%s", out.String())
		}
		time.Sleep(time.Millisecond)
	}
}

func toyRequestBody(t *testing.T) []byte {
	t.Helper()
	f := flow.CacheCoherence()
	s := spec.FromFlows("toy-cache-coherence", []*flow.Flow{f},
		[]flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 2}}, 2)
	var buf bytes.Buffer
	if err := spec.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The daemon must serve the paper's Fig. 2 toy scenario byte-identically
// to the checked-in golden (selection is bit-deterministic), then drain
// cleanly on shutdown.
func TestRunServesToyGolden(t *testing.T) {
	var out logBuf
	url, shutdown, wait := startDaemon(t, &out)

	resp, err := http.Post(url+"/select", "application/json", bytes.NewReader(toyRequestBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body.String())
	}

	golden := filepath.Join("testdata", "toy_response.golden.json")
	if *update {
		if err := os.WriteFile(golden, body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body.Bytes(), want) {
		t.Errorf("response diverges from golden\ngot:\n%s\nwant:\n%s", body.Bytes(), want)
	}

	// /healthz and /metrics answer while serving.
	hr, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", hr.StatusCode)
	}

	shutdown()
	if err := wait(); err != nil {
		t.Fatalf("run returned %v", err)
	}
	if !strings.Contains(out.String(), "stopped") {
		t.Errorf("shutdown did not report \"stopped\"; output:\n%s", out.String())
	}
}

// Shutdown must drain: a selection in flight when the signal lands still
// gets its 200 before the daemon exits.
func TestRunGracefulDrain(t *testing.T) {
	var out logBuf
	url, shutdown, wait := startDaemon(t, &out)

	// A scan long enough (2^22 masks) that shutdown fires mid-selection.
	rng := rand.New(rand.NewSource(7))
	f, err := synth.Flow("slow", synth.Params{States: 23, MaxWidth: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := spec.FromFlows("slow", []*flow.Flow{f}, []flow.Instance{{Flow: f, Index: 1}}, 24)
	var body bytes.Buffer
	if err := spec.Write(&body, s); err != nil {
		t.Fatal(err)
	}

	type reply struct {
		status int
		err    error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url+"/select", "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			done <- reply{err: err}
			return
		}
		resp.Body.Close()
		done <- reply{status: resp.StatusCode}
	}()

	// Wait until the selection is in flight, then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mr, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]int64
		derr := json.NewDecoder(mr.Body).Decode(&snap)
		mr.Body.Close()
		if derr != nil {
			t.Fatal(derr)
		}
		if snap["serve.inflight"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			r := <-done
			if r.err == nil && r.status == http.StatusOK {
				t.Skipf("selection finished before shutdown could interrupt it")
			}
			t.Fatalf("selection never got in flight: %+v", r)
		}
		time.Sleep(time.Millisecond)
	}
	shutdown()

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Errorf("in-flight request got %d during drain, want 200", r.status)
	}
	if err := wait(); err != nil {
		t.Fatalf("run returned %v", err)
	}
	if !strings.Contains(out.String(), "stopped") {
		t.Errorf("shutdown did not report \"stopped\"; output:\n%s", out.String())
	}
}

func TestRunBadInvocation(t *testing.T) {
	var out logBuf
	if err := run(context.Background(), []string{"-no-such-flag"}, &out); err != errUsage {
		t.Errorf("unknown flag: err = %v, want errUsage", err)
	}
	if err := run(context.Background(), []string{"stray-arg"}, &out); err != errUsage {
		t.Errorf("stray positional arg: err = %v, want errUsage", err)
	}
	// The result store is memory-only: there is no flag to spill it.
	if err := run(context.Background(), []string{"-store-dir", t.TempDir()}, &out); err != errUsage {
		t.Errorf("-store-dir: err = %v, want errUsage", err)
	}
	if err := run(context.Background(), []string{"-addr", "256.256.256.256:1"}, &out); err == nil {
		t.Error("unlistenable address: err = nil, want listen failure")
	}
}

// The whole daemon lifecycle must hold under the race detector with
// concurrent clients (CI runs this package with -race).
func TestRunConcurrentClients(t *testing.T) {
	var out logBuf
	url, shutdown, wait := startDaemon(t, &out, "-max-inflight", "2")
	body := toyRequestBody(t)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(url+"/select", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("client %d: status %d, want 200 or 429", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	shutdown()
	if err := wait(); err != nil {
		t.Fatalf("run returned %v", err)
	}
}

// reconstructRequestBody loads the checked-in /reconstruct request (the
// toy scenario, ReqE+GntE traced, the paper's three-message observation),
// regenerating it under -update so the testdata can never drift from the
// spec writer's format.
func reconstructRequestBody(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join("testdata", "reconstruct_request.json")
	if *update {
		var m map[string]any
		if err := json.Unmarshal(toyRequestBody(t), &m); err != nil {
			t.Fatal(err)
		}
		m["traced"] = []string{"ReqE", "GntE"}
		m["observed"] = []map[string]any{
			{"name": "ReqE", "index": 1},
			{"name": "GntE", "index": 1},
			{"name": "ReqE", "index": 2},
		}
		m["maxWitnesses"] = 4
		raw, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// The daemon must reconstruct the paper's observation byte-identically to
// the checked-in golden: the engine is bit-deterministic, so the count,
// survivor profile, and witness are pinned exactly.
func TestRunServesReconstructGolden(t *testing.T) {
	var out logBuf
	url, shutdown, wait := startDaemon(t, &out)

	resp, err := http.Post(url+"/reconstruct", "application/json", bytes.NewReader(reconstructRequestBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body.String())
	}

	golden := filepath.Join("testdata", "reconstruct_response.golden.json")
	if *update {
		if err := os.WriteFile(golden, body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body.Bytes(), want) {
		t.Errorf("response diverges from golden\ngot:\n%s\nwant:\n%s", body.Bytes(), want)
	}

	shutdown()
	if err := wait(); err != nil {
		t.Fatalf("run returned %v", err)
	}
}
