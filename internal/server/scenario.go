package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"dvsslack/internal/scenario"
)

// ReadScenario reads a scenario document (YAML or JSON, sniffed) of
// at most maxBytes from the request body and validates it, returning
// the document and its raw bytes. When it cannot, it answers the
// request itself: 413 for an oversized body, 400 listing every
// validation error.
func ReadScenario(w http.ResponseWriter, r *http.Request, maxBytes int64) (*scenario.Document, []byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		writeBodyError(w, "reading scenario body", err)
		return nil, nil, false
	}
	doc, errs := scenario.Parse("scenario", body)
	if len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		WriteJSON(w, http.StatusBadRequest, ErrorBody{
			Error:  fmt.Sprintf("scenario failed validation with %d error(s): %s", len(errs), msgs[0]),
			Errors: msgs,
		})
		return nil, nil, false
	}
	return doc, body, true
}

// handleScenario answers POST /v1/scenario: execute a declarative
// scenario document (YAML or JSON, sniffed from the body) and return
// its verdict. The response body is the verdict's canonical byte
// form — identical to a local `dvsscen run -json` of the same
// document — so callers can compare verdicts across transports with
// cmp. A scenario whose assertions fail still answers 200 (the
// verdict reports ok=false); 4xx is reserved for documents that do
// not validate, with every validation error listed.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfDraining(w) {
		return
	}
	doc, _, ok := ReadScenario(w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	// Scenario runs execute on the request goroutine (one audited
	// simulation per listed policy); admission control bounds how
	// many run at once, exactly like synchronous /v1/simulate.
	if err := s.admit.TryAcquire(); err != nil {
		s.met.shed.Inc()
		w.Header().Set("Retry-After", ShedRetryAfter)
		WriteError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	defer s.admit.Release()
	v, err := scenario.Execute(r.Context(), doc)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", ShedRetryAfter)
		WriteError(w, http.StatusServiceUnavailable, "%v", ErrDeadlineExceeded)
		return
	case errors.Is(err, context.Canceled):
		WriteError(w, http.StatusRequestTimeout, "%v", err)
		return
	case err != nil:
		WriteError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.met.scenariosRun.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(v.JSON())
}
