package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// The online-resolve wire format. Records and probes travel as raw
// attribute-value slices in the model's schema order, like pairs do.

// RecordRequest is the body of POST /v1/records.
type RecordRequest struct {
	Values []string `json:"values"`
}

// RecordResponse acknowledges an indexed record with its stable ID and the
// store's live size.
type RecordResponse struct {
	ID   uint64 `json:"id"`
	Live int    `json:"live"`
}

// DeleteResponse answers DELETE /v1/records/{id}.
type DeleteResponse struct {
	ID      uint64 `json:"id"`
	Deleted bool   `json:"deleted"`
	Live    int    `json:"live"`
}

// ResolveRequest is the body of POST /v1/resolve. K defaults to 10 and is
// capped at maxResolveK.
type ResolveRequest struct {
	Values []string `json:"values"`
	K      int      `json:"k"`
}

// ResolveMatch is one resolved match: the stored record (ID + values) and
// the serving-path verdict of the (probe, record) pair.
type ResolveMatch struct {
	ID     uint64   `json:"id"`
	Values []string `json:"values,omitempty"`
	Prob   float64  `json:"prob"`
	Match  bool     `json:"match"`
	Risk   float64  `json:"risk"`
	Mu     float64  `json:"mu"`
	Sigma  float64  `json:"sigma"`
}

// ResolveResponse answers a probe: the k best matches, best first, plus the
// model snapshot that scored them.
type ResolveResponse struct {
	Matches          []ResolveMatch `json:"matches"`
	ModelFingerprint string         `json:"model_fingerprint"`
}

// SnapshotResponse answers POST /v1/snapshot: the durable-store snapshot
// that was just cut and published. The top-level fields aggregate over the
// partitions (records and bytes summed, millis and seq the maximum —
// snapshots cut concurrently); with more than one partition, Partitions
// carries the per-partition breakdown.
type SnapshotResponse struct {
	Seq        uint64             `json:"seq"`
	Records    int                `json:"records"`
	Bytes      int64              `json:"bytes"`
	Millis     int64              `json:"millis"`
	Partitions []SnapshotResponse `json:"partitions,omitempty"`
}

// maxResolveK bounds how many matches one probe may request: the top-k heap
// is per-request state, so the bound keeps a single client from turning a
// probe into a full-store ranking.
const maxResolveK = 1000

func (s *Server) handleAddRecord(w http.ResponseWriter, r *http.Request) {
	var req RecordRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	tr := s.metrics.begin()
	id, err := s.addRecordTraced(req.Values, tr)
	s.metrics.finish(reqIngest, tr)
	if err != nil {
		writeMutationError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RecordResponse{ID: id, Live: s.Live()})
}

// writeMutationError answers a failed record mutation; a back-pressure
// refusal carries a Retry-After hint so well-behaved clients pace
// themselves instead of hammering the full queue.
func writeMutationError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrBackpressure) {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, statusFor(err), err)
}

func (s *Server) handleDeleteRecord(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad record id %q: %w", r.PathValue("id"), err))
		return
	}
	tr := s.metrics.begin()
	ok, err := s.deleteRecordTraced(id, tr)
	s.metrics.finish(reqIngest, tr)
	if err != nil {
		writeMutationError(w, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("record %d not found", id))
		return
	}
	writeJSON(w, http.StatusOK, DeleteResponse{ID: id, Deleted: true, Live: s.Live()})
}

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	var req ResolveRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	if k < 0 || k > maxResolveK {
		writeError(w, http.StatusBadRequest, fmt.Errorf("k must be in 1..%d, got %d", maxResolveK, k))
		return
	}
	tr := s.metrics.begin()
	res, st, fp, err := s.resolveTraced(req.Values, k, tr)
	s.metrics.finish(reqResolve, tr)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	resp := ResolveResponse{Matches: make([]ResolveMatch, len(res)), ModelFingerprint: fp}
	for i, mr := range res {
		rm := ResolveMatch{
			ID:   mr.ID,
			Prob: mr.Score.Prob, Match: mr.Score.Match,
			Risk: mr.Score.Risk, Mu: mr.Score.Mu, Sigma: mr.Score.Sigma,
		}
		// st is the snapshot the resolve ran against (never a store a
		// forced swap published afterwards, whose IDs restart at zero), so
		// Get can only miss when the record was deleted mid-request; the
		// verdict still stands for the snapshot the probe saw.
		if vals, ok := st.Get(mr.ID); ok {
			rm.Values = vals
		}
		resp.Matches[i] = rm
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSnapshot is the admin trigger for a durable-store snapshot (cut
// the surviving record set to disk now and truncate the covered log —
// every partition concurrently). 409 on an
// in-memory server, 503 while the durable store is still replaying.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	infos, err := s.TriggerSnapshot()
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	var resp SnapshotResponse
	for _, info := range infos {
		part := SnapshotResponse{
			Seq:     info.Seq,
			Records: info.Records,
			Bytes:   info.Bytes,
			Millis:  info.Duration.Milliseconds(),
		}
		resp.Records += part.Records
		resp.Bytes += part.Bytes
		resp.Seq = max(resp.Seq, part.Seq)
		resp.Millis = max(resp.Millis, part.Millis)
		if len(infos) > 1 {
			resp.Partitions = append(resp.Partitions, part)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReadyz is the readiness probe: 200 once a model is served AND any
// front-end warm-load has finished (SetReady) AND every partition has
// finished replaying, 503 with the blocking
// reason — and the per-partition reason list — before that. Load
// balancers gate traffic on this; liveness (/healthz) stays green
// throughout so the process is not restarted for merely being slow to
// warm.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if ok, reason := s.Ready(); !ok {
		body := map[string]any{
			"status": "starting",
			"reason": reason,
		}
		if parts := s.PartitionReasons(); parts != nil {
			body["partitions"] = parts
		}
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ready",
		"model":      s.Model().Fingerprint(),
		"records":    s.Live(),
		"partitions": s.Partitioned().Partitions(),
	})
}
