package serve

import (
	"encoding/json"
	"net/http"

	"mcpat/internal/guard"
)

// Error kinds beyond the guard taxonomy, used for transport-level
// failures, plus the taxonomy kinds the service writes itself.
const (
	kindBadRequest = "bad_request"
	kindNotFound   = "not_found"
	kindOverloaded = "overloaded"
	kindDraining   = "draining"
	kindTimeout    = guard.KindTimeout
	kindCanceled   = guard.KindCanceled
	kindInternal   = guard.KindInternal
)

// httpStatus maps a classified error kind onto its HTTP status: caller
// mistakes are 4xx, model bugs are 5xx.
//
//	config       -> 400 (malformed / out-of-range input)
//	infeasible   -> 422 (well-formed, no physical solution)
//	model_domain -> 422 (outputs left the validity domain)
//	internal     -> 500 (contained panic / framework bug)
//
// Context errors from per-request deadlines and drain map to 504/503.
func httpStatus(kind string) int {
	switch kind {
	case guard.KindConfig:
		return http.StatusBadRequest
	case guard.KindInfeasible, guard.KindModelDomain:
		return http.StatusUnprocessableEntity
	case guard.KindTimeout:
		return http.StatusGatewayTimeout
	case guard.KindCanceled:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

// writeError writes the structured error body for a classified failure.
func writeError(w http.ResponseWriter, status int, e *APIError) {
	writeJSON(w, status, ErrorBody{Error: *e})
}

// writeModelError classifies a model error and writes both status and
// body from it.
func writeModelError(w http.ResponseWriter, err error) {
	e := guard.Classify(err)
	writeError(w, httpStatus(e.Kind), e)
}
