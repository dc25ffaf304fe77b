package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestRunServeErrors(t *testing.T) {
	if err := run([]string{"serve", "stray"}); err == nil {
		t.Error("stray positional argument must error")
	}
	if err := run([]string{"serve", "-preload", "nope"}); err == nil {
		t.Error("preloading an unknown workload must error")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("preload error %v does not name the workload", err)
	}
	if err := run([]string{"serve", "-loops", "5", "-addr", "127.0.0.1:999999"}); err == nil {
		t.Error("unlistenable address must error")
	}
}

// httpServer adapts an http.Server to serveUntilSignal: like serve.Server
// and fleet.Router, its Serve reports a stop as a clean return.
type httpServer struct{ *http.Server }

func (s httpServer) Serve(l net.Listener) error {
	if err := s.Server.Serve(l); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// TestServeUntilSignalForcesClose: SIGINT with a request stuck in flight
// drains for the bounded time, then force-closes the stuck connection,
// and the serve loop returns cleanly.
func TestServeUntilSignalForcesClose(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	srv := httpServer{&http.Server{Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		close(entered)
		<-release
	})}}
	got := make(chan error, 1)
	err := serveUntilSignal("test", "127.0.0.1:0", srv, 50*time.Millisecond, func(a net.Addr) error {
		go func() {
			_, err := http.Get("http://" + a.String() + "/")
			got <- err
		}()
		go func() {
			<-entered
			syscall.Kill(syscall.Getpid(), syscall.SIGINT)
		}()
		return nil
	})
	if err != nil {
		t.Fatalf("serve loop: %v", err)
	}
	select {
	case err := <-got:
		if err == nil {
			t.Error("the stuck request completed; want its connection closed")
		}
	case <-time.After(5 * time.Second):
		t.Error("the stuck request is still open after the drain bound: no forced close")
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("captured run failed: %v", runErr)
	}
	return string(data)
}

// TestWorkloadImportShadowWarning pins the satellite contract: importing a
// file whose workload name collides with a registered scenario succeeds
// but spells out the registry-wins rule instead of staying silent.
func TestWorkloadImportShadowWarning(t *testing.T) {
	w, err := workload.Build("divheavy", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Name = workload.Default
	path := filepath.Join(t.TempDir(), "shadow.json")
	if err := workload.Save(w, path); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return run([]string{"workload", "import", "-in", path})
	})
	if !strings.Contains(out, "registered scenario") || !strings.Contains(out, "selects the registry scenario") {
		t.Errorf("import of a shadowed name must warn with the rule, got:\n%s", out)
	}

	// A non-colliding name imports without the warning.
	w.Name = "mysuite"
	if err := workload.Save(w, path); err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() error {
		return run([]string{"workload", "import", "-in", path})
	})
	if strings.Contains(out, "warning") {
		t.Errorf("non-colliding import must not warn, got:\n%s", out)
	}
}
