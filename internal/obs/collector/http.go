package collector

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/simlat"
)

// Register mounts the trace API on a mux (typically the fedserver metrics
// listener, next to /metrics and /healthz):
//
//	GET /traces                 list retained traces, newest first
//	    ?stmt=<substr>          filter by statement substring
//	    ?errors=1               failed traces only
//	    ?min_ms=<paper ms>      at/above a paper latency
//	    ?limit=<n>              cap the listing
//	GET /traces/<id>            full trace as JSON
//	GET /traces/<id>?format=text  span tree + waterfall as plain text
func (c *Collector) Register(mux *http.ServeMux) {
	mux.HandleFunc("/traces", c.handleList)
	mux.HandleFunc("/traces/", c.handleGet)
}

func (c *Collector) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := Filter{Statement: q.Get("stmt"), ErrorsOnly: q.Get("errors") != ""}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil {
			http.Error(w, "bad min_ms", http.StatusBadRequest)
			return
		}
		f.MinPaper = time.Duration(ms * float64(simlat.PaperMS))
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		f.Limit = n
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(c.List(f))
}

func (c *Collector) handleGet(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/traces/")
	if id == "" {
		c.handleList(w, r)
		return
	}
	t := c.Get(id)
	if t == nil {
		http.Error(w, "no such trace", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "trace %s stmt=%q arch=%s paper=%.3fms wall=%.3fms",
			t.ID, t.Statement, t.Arch, float64(t.Paper)/float64(simlat.PaperMS), float64(t.Wall)/float64(time.Millisecond))
		if t.Error != "" {
			fmt.Fprintf(w, " error=%q", t.Error)
		}
		fmt.Fprint(w, "\n\n")
		fmt.Fprint(w, obs.Waterfall(t.Root))
		fmt.Fprint(w, "\n")
		fmt.Fprint(w, obs.RenderData(t.Root))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(t)
}
