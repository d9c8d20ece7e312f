package obshttp

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

// TestServe: the endpoint binds before Serve returns — an occupied
// address is an error, not a blind process — answers /stats,
// /debug/vars and /debug/pprof/, and stops cleanly.
func TestServe(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	if _, _, err := Serve(taken.Addr().String(), http.NotFoundHandler()); err == nil {
		t.Fatal("Serve on an occupied address returned no error")
	}

	stats := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"uptime_ns":1}`)
	})
	addr, stop, err := Serve("127.0.0.1:0", stats)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for _, path := range []string{"/stats", "/debug/vars", "/debug/pprof/"} {
		resp, err := client.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/stats" && !strings.Contains(string(body), "uptime_ns") {
			t.Fatalf("GET /stats did not reach the stats handler: %s", body)
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if _, err := client.Get("http://" + addr.String() + "/stats"); err == nil {
		t.Fatal("endpoint still answers after stop")
	}
}
