package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/store"
	"repro/internal/voter"
)

// TestFlagValidation: bad invocations end before anything listens — no
// "listening on" line — with the exit code and the words that name the cause.
func TestFlagValidation(t *testing.T) {
	file := filepath.Join(t.TempDir(), "store")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing")
	for _, tc := range []struct {
		args []string
		code int
		want []string
	}{
		// The store-backed serving mode and its switch are gone.
		{[]string{"-db", missing, "-snapshot=false"}, 2, []string{"flag provided but not defined: -snapshot", "Usage of ncserve"}},
		{[]string{"-db", missing, "-store-workers", "2"}, 2, []string{"flag provided but not defined: -store-workers", "Usage of ncserve"}},
		{[]string{"-cache", "many"}, 2, []string{"invalid value", "Usage of ncserve"}},
		{[]string{"-db", missing, "-addr", "127.0.0.1:0"}, 1, []string{missing}},
		{[]string{"-db", file, "-addr", "127.0.0.1:0"}, 1, []string{"not a directory"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before rejecting the invocation", tc.args, stdout.String())
		}
		for _, want := range tc.want {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("%v: stderr %q, want it to contain %q", tc.args, stderr.String(), want)
			}
		}
		if tc.code == 1 && strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: stderr is not one line: %q", tc.args, stderr.String())
		}
	}
}

// syncBuffer is an io.Writer the server goroutine and the test share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeUntilSignal drives one whole life of the process: bind, load a
// stamped store, serve with the response cache disabled by -cache -1, refuse
// a SIGHUP reload of a store whose commit was cut, serve it once the commit
// completes, drain on SIGTERM, exit 0.
func TestServeUntilSignal(t *testing.T) {
	d := core.NewDataset(core.RemoveTrimmed)
	mk := func(ncid, first string) voter.Record {
		r := voter.NewRecord()
		r.SetName("ncid", ncid)
		r.SetName("first_name", first)
		return r
	}
	d.ImportSnapshot(voter.Snapshot{Date: "2008-01-01", Records: []voter.Record{
		mk("A1", "ANNA"), mk("A1", "ANA"), mk("B2", "BELLA"),
	}})
	d.Publish()
	dir := t.TempDir()
	rec, err := store.Commit(d, dir, store.CommitOpts{})
	if err != nil {
		t.Fatal(err)
	}

	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-db", dir, "-addr", "127.0.0.1:0", "-cache", "-1", "-grace", "5s"}, &stdout, &stderr)
	}()
	stopped := false
	defer func() {
		if !stopped { // a failed assertion must not leave the server running
			syscall.Kill(os.Getpid(), syscall.SIGTERM)
			<-exit
		}
	}()

	// The listening line carries the address the kernel picked; readiness
	// follows the first load.
	urlRE := regexp.MustCompile(`listening on (http://[0-9.:]+)`)
	var base string
	deadline := time.Now().Add(20 * time.Second)
	for base == "" {
		if m := urlRE.FindStringSubmatch(stdout.String()); m != nil {
			base = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no listening line; stdout %q, stderr %q", stdout.String(), stderr.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, string(body)
	}
	for {
		resp, body := get("/v1/healthz")
		if resp.StatusCode == 200 {
			if !strings.Contains(body, `"clusters":2`) {
				t.Fatalf("healthz = %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never ready: %d %s; stderr %q", resp.StatusCode, body, stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		resp, body := get("/v1/records/A1")
		if resp.StatusCode != 200 || !strings.Contains(body, `"ncid":"A1"`) {
			t.Fatalf("record view: %d %s", resp.StatusCode, body)
		}
		if xc := resp.Header.Get("X-Cache"); xc != "" {
			t.Fatalf("-cache -1 left the response cache on: X-Cache %q", xc)
		}
	}

	if resp, body := get("/v1/provenance"); resp.StatusCode != 200 || !strings.Contains(body, rec.Root()) {
		t.Fatalf("provenance: %d %s, want the record with root %s", resp.StatusCode, body, rec.Root())
	}

	// A commit cut after its docstore save leaves manifests the record does
	// not vouch for: the reload is refused and generation 1 keeps serving.
	// Once the commit completes, the next reload serves it.
	d.ImportSnapshot(voter.Snapshot{Date: "2009-01-01", Records: []voter.Record{mk("C3", "CARA")}})
	d.Publish()
	if err := d.ToDocDB().SaveParallelOpts(dir, docstore.SaveOpts{}); err != nil {
		t.Fatal(err)
	}
	reload := func(want string) {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
			t.Fatal(err)
		}
		for !strings.Contains(stderr.String(), want) {
			if time.Now().After(deadline) {
				t.Fatalf("stderr misses %q after SIGHUP: %q", want, stderr.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	reload("reload failed, keeping generation 1")
	if resp, body := get("/v1/healthz"); resp.StatusCode != 200 || !strings.Contains(body, `"generation":1`) {
		t.Fatalf("healthz after the refused reload = %d %s", resp.StatusCode, body)
	}
	if _, err := store.Commit(d, dir, store.CommitOpts{}); err != nil {
		t.Fatal(err)
	}
	reload("generation 2: serving 3 clusters / 4 records")

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		stopped = true
		if code != 0 {
			t.Fatalf("exit %d after SIGTERM; stderr %q", code, stderr.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
	for _, want := range []string{"generation 1: serving 2 clusters / 3 records", "drained cleanly"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr misses %q: %q", want, stderr.String())
		}
	}
}
