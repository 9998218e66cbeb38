package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

// syncBuffer lets the daemon goroutine and the test read/write the log
// concurrently.
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

// waitForAddr polls the log for the "listening on" line and extracts
// the bound address.
func waitForAddr(t *testing.T, log *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		sc := bufio.NewScanner(strings.NewReader(log.String()))
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			for i, f := range fields {
				if f == "on" && i+1 < len(fields) {
					return fields[i+1]
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never logged its address:\n%s", log.String())
	return ""
}

// TestDaemonServesJobsAndDrains starts the daemon on a random port,
// drives a job through the Go client, then cancels the run context and
// checks the graceful drain exits nil.
func TestDaemonServesJobsAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var log syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, &log, config{addr: "127.0.0.1:0", drainTimeout: 10 * time.Second})
	}()
	addr := waitForAddr(t, &log)

	c := service.NewClient("http://"+addr, nil)
	c.PollInterval = 5 * time.Millisecond
	st, err := c.Submit(ctx, []scenario.Scenario{{
		Generate: scenario.GenerateSpec{Model: "ba", Params: scenario.Params{"n": 60}},
		Measure:  &scenario.MeasureSpec{Degrees: true},
		Reps:     2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone || len(final.Results) != 1 || len(final.Results[0].Reps) != 2 {
		t.Fatalf("job finished as %+v", final)
	}
	if _, err := json.Marshal(final.Results); err != nil {
		t.Fatal(err)
	}
	z, err := c.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if z.Jobs.Done != 1 {
		t.Fatalf("statusz jobs %+v", z.Jobs)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v, want clean drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never exited after cancel")
	}
	if !strings.Contains(log.String(), "drained cleanly") {
		t.Fatalf("drain not logged:\n%s", log.String())
	}
}

// TestDaemonRejectsBadListenAddr pins the error path so a typo'd -addr
// exits instead of hanging.
func TestDaemonRejectsBadListenAddr(t *testing.T) {
	var log syncBuffer
	err := run(context.Background(), &log, config{addr: "999.999.999.999:1", drainTimeout: time.Second})
	if err == nil {
		t.Fatal("bogus listen address accepted")
	}
}

// TestDaemonDropsStalledClient: a client that sends part of a request
// line and then stalls is disconnected once the header timeout passes,
// instead of holding its connection for as long as it likes.
func TestDaemonDropsStalledClient(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var log syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, &log, config{addr: "127.0.0.1:0", drainTimeout: 10 * time.Second})
	}()
	defer func() {
		cancel()
		<-done
	}()
	addr := waitForAddr(t, &log)
	start := time.Now() // before the accept, where the header timeout starts
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/statusz HT")); err != nil {
		t.Fatal(err)
	}
	bound := readHeaderTimeout + 2*time.Second
	if err := conn.SetReadDeadline(start.Add(bound)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled connection still open after %v", bound)
	}
	if elapsed := time.Since(start); elapsed < readHeaderTimeout {
		t.Fatalf("stalled connection closed after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}
}
