package serve

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/stream"
)

// Wire shapes and boundary validation for the /v1 JSON API.
//
// The HTTP boundary is where untrusted input enters the measurement
// service, so every invariant the interior enforces by panicking — a
// non-positive calibration input (privacy.Calibration.Epsilon), a negative
// noise scale (stats.Laplace), a day index that would overflow the int32
// epoch space (events.EpochOfDay) — is checked here first and reported as
// a typed RequestError with a 400 status. Nothing a socket can carry
// reaches a panicking check: the fuzz target in fuzz_test.go holds the
// decode→ingest path to that.

// Boundary limits. They bound hostile input, not legitimate workloads:
// every dataset this repository generates sits far inside them.
const (
	// MaxBatchEvents bounds the events in one ingest request.
	MaxBatchEvents = 4096
	// MaxBodyBytes bounds one request body.
	MaxBodyBytes = 4 << 20
	// maxSiteLen bounds any site, campaign or product key. The event
	// store interns keys, so unbounded distinct strings are a memory
	// attack as well as a nuisance.
	maxSiteLen = 256
	// maxEventValue bounds conversion values and the registration
	// sensitivity Δ (both enter noise-scale arithmetic).
	maxEventValue = 1e12
	// maxBatchSize bounds a registered query's batch size B.
	maxBatchSize = 1 << 20
	// maxProducts bounds one registration's product list.
	maxProducts = 1024
)

// Stable machine-readable error codes carried by RequestError.
const (
	CodeMalformedJSON   = "malformed-json"
	CodeBadQuery        = "bad-query"
	CodeBodyTooLarge    = "body-too-large"
	CodeTooManyEvents   = "too-many-events"
	CodeBadID           = "bad-id"
	CodeBadKind         = "bad-kind"
	CodeBadDay          = "bad-day"
	CodeBadValue        = "bad-value"
	CodeBadSite         = "bad-site"
	CodeBadProduct      = "bad-product"
	CodeBadRegistration = "bad-registration"
	CodeSealed          = "registration-sealed"
	CodeConflict        = "registration-conflict"
	CodeBackpressure    = "backpressure"
	CodeOverload        = "overload-shed"
	CodeUnavailable     = "unavailable"
)

// RequestError is a typed boundary-validation failure: malformed or
// hostile input detected at the HTTP boundary and reported to the client
// as a 400, instead of reaching an invariant check deeper in the service
// that would panic.
type RequestError struct {
	// Code is the stable machine-readable identifier.
	Code string
	// Index is the offending event's position within the batch (-1 when
	// the error is not about one event).
	Index int
	// Msg is the human-readable detail.
	Msg string
}

// Error implements error.
func (e *RequestError) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("%s (event %d): %s", e.Code, e.Index, e.Msg)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Msg)
}

func reqErr(code, format string, args ...any) *RequestError {
	return &RequestError{Code: code, Index: -1, Msg: fmt.Sprintf(format, args...)}
}

// EventWire is one impression or conversion on the wire. The event ID is
// also the client's per-device sequence number: admission requires each
// device's (day, id) to be strictly increasing, and a retried POST is
// deduplicated against that cursor.
type EventWire struct {
	ID         uint64  `json:"id"`
	Kind       string  `json:"kind"`
	Device     uint64  `json:"device"`
	Day        int     `json:"day"`
	Publisher  string  `json:"publisher,omitempty"`
	Advertiser string  `json:"advertiser,omitempty"`
	Campaign   string  `json:"campaign,omitempty"`
	Product    string  `json:"product,omitempty"`
	Value      float64 `json:"value,omitempty"`
}

// WireFromEvent converts an internal event to its wire shape.
func WireFromEvent(ev events.Event) EventWire {
	return EventWire{
		ID:         uint64(ev.ID),
		Kind:       ev.Kind.String(),
		Device:     uint64(ev.Device),
		Day:        ev.Day,
		Publisher:  ev.Publisher.String(),
		Advertiser: ev.Advertiser.String(),
		Campaign:   ev.Campaign.String(),
		Product:    ev.Product.String(),
		Value:      ev.Value,
	}
}

// event returns the wire event's fields as an events.Event, and apart from
// it the names it carries: what validateEvent checks before any name is
// interned. An unknown kind is kindUnset, which validateEvent refuses.
func (w EventWire) event() (events.Event, [4]string) {
	ev := events.Event{ID: events.EventID(w.ID), Kind: kindUnset, Device: events.DeviceID(w.Device),
		Day: w.Day, Value: w.Value}
	switch w.Kind {
	case "impression":
		ev.Kind = events.KindImpression
	case "conversion":
		ev.Kind = events.KindConversion
	}
	return ev, [4]string{w.Publisher, w.Advertiser, w.Campaign, w.Product}
}

// QueryRegistration is one querier's registration: the advertiser site,
// its product query streams, and the calibration inputs (Δ, c̃, B) its
// summation queries will use.
type QueryRegistration struct {
	Site           string   `json:"site"`
	Products       []string `json:"products,omitempty"`
	MaxValue       float64  `json:"maxValue"`
	AvgReportValue float64  `json:"avgReportValue"`
	BatchSize      int      `json:"batchSize"`
}

// RegistrationFromAdvertiser converts dataset metadata to its wire shape.
func RegistrationFromAdvertiser(a dataset.Advertiser) QueryRegistration {
	products := make([]string, len(a.Products))
	for i, p := range a.Products {
		products[i] = p.String()
	}
	return QueryRegistration{
		Site:           a.Site.String(),
		Products:       products,
		MaxValue:       a.MaxValue,
		AvgReportValue: a.AvgReportValue,
		BatchSize:      a.BatchSize,
	}
}

// validate checks a registration: the wire bounds here, and the
// calibration domain every query this querier will ever run depends on
// through dataset.Advertiser.Validate, the rule the engine enforces too.
// It interns nothing, so a refused registration leaves no names behind.
func (q QueryRegistration) validate() *RequestError {
	if q.Site == "" || len(q.Site) > maxSiteLen {
		return reqErr(CodeBadRegistration, "site must be 1..%d bytes", maxSiteLen)
	}
	if len(q.Products) == 0 {
		return reqErr(CodeBadRegistration, "a querier needs at least one product stream")
	}
	if len(q.Products) > maxProducts {
		return reqErr(CodeBadRegistration, "at most %d products per querier", maxProducts)
	}
	for _, p := range q.Products {
		if p == "" || len(p) > maxSiteLen {
			return reqErr(CodeBadRegistration, "product keys must be 1..%d bytes", maxSiteLen)
		}
	}
	calibration := dataset.Advertiser{MaxValue: q.MaxValue, AvgReportValue: q.AvgReportValue, BatchSize: q.BatchSize}
	if err := calibration.Validate(); err != nil {
		return reqErr(CodeBadRegistration, "querier %q: %v", q.Site, err)
	}
	if q.BatchSize > maxBatchSize {
		return reqErr(CodeBadRegistration, "batch size must be at most %d", maxBatchSize)
	}
	if q.MaxValue > maxEventValue || q.AvgReportValue > maxEventValue {
		return reqErr(CodeBadRegistration, "maxValue and avgReportValue must be at most %g", maxEventValue)
	}
	return nil
}

// checkQueriers is the rule for a preset querier set, a server's or a trace
// header's: every registration valid and no site twice. It interns nothing.
func checkQueriers(regs []QueryRegistration) *RequestError {
	sites := make(map[string]bool, len(regs))
	for i, q := range regs {
		if rerr := q.validate(); rerr != nil {
			rerr.Msg = fmt.Sprintf("querier %d: %s", i, rerr.Msg)
			return rerr
		}
		if sites[q.Site] {
			return reqErr(CodeConflict, "querier %s registered twice", q.Site)
		}
		sites[q.Site] = true
	}
	return nil
}

// advertiser interns a validated registration's names.
func (q QueryRegistration) advertiser() dataset.Advertiser {
	adv := dataset.Advertiser{
		Site:           events.Intern(q.Site),
		Products:       make([]events.Sym, len(q.Products)),
		MaxValue:       q.MaxValue,
		AvgReportValue: q.AvgReportValue,
		BatchSize:      q.BatchSize,
	}
	for i, p := range q.Products {
		adv.Products[i] = events.Intern(p)
	}
	return adv
}

// equal reports whether two registrations are identical — the
// idempotent-retry test for a re-registration after the run sealed.
func (q QueryRegistration) equal(o QueryRegistration) bool {
	return q.Site == o.Site && q.MaxValue == o.MaxValue && q.AvgReportValue == o.AvgReportValue &&
		q.BatchSize == o.BatchSize && slices.Equal(q.Products, o.Products)
}

// IngestRequest is the body of POST /v1/events.
type IngestRequest struct {
	Events []EventWire `json:"events"`
}

// IngestResponse acknowledges an ingest request: every event was either
// admitted (and is WAL-logged and applied by the time the response is
// sent) or recognized as a duplicate of an admission that is itself
// durable by the time the response is sent — a duplicate of an event
// still in the admission queue is acknowledged only after that event
// applies.
type IngestResponse struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	// Index is the offending event's batch position, present exactly when
	// the error is about one event (position 0 included).
	Index *int `json:"index,omitempty"`
	// Accepted and Duplicates report the processed prefix of a
	// backpressured (429) request — events admitted and dedupe hits before
	// the queue pushed back; the whole batch can be retried, the prefix
	// deduplicates.
	Accepted   int `json:"accepted,omitempty"`
	Duplicates int `json:"duplicates,omitempty"`
	// RetryAfterMs is a precise retry hint on pushback responses
	// (CodeBackpressure, CodeOverload, CodeUnavailable), mirroring the
	// integer-seconds Retry-After header for clients with sub-second
	// backoff.
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

// ResultWire is one released query result, querier-facing: the noisy
// estimate and its metadata, never the ground truth the simulator keeps
// for its accuracy metrics.
type ResultWire struct {
	Querier       string  `json:"querier"`
	Product       string  `json:"product"`
	Index         int     `json:"index"`
	Batch         int     `json:"batch"`
	Epsilon       float64 `json:"epsilon"`
	Executed      bool    `json:"executed"`
	Estimate      float64 `json:"estimate"`
	FireDay       int     `json:"fireDay"`
	FirstEpoch    int32   `json:"firstEpoch"`
	LastEpoch     int32   `json:"lastEpoch"`
	DeniedReports int     `json:"deniedReports"`
	BiasedReports int     `json:"biasedReports"`
	BiasEstimate  float64 `json:"biasEstimate,omitempty"`
}

func wireFromResult(res stream.Result) ResultWire {
	return ResultWire{
		Querier:       res.Querier.String(),
		Product:       res.Product.String(),
		Index:         res.Index,
		Batch:         res.Batch,
		Epsilon:       res.Epsilon,
		Executed:      res.Executed,
		Estimate:      res.Estimate,
		FireDay:       res.FireDay,
		FirstEpoch:    int32(res.FirstEpoch),
		LastEpoch:     int32(res.LastEpoch),
		DeniedReports: res.DeniedReports,
		BiasedReports: res.BiasedReports,
		BiasEstimate:  res.BiasEstimate,
	}
}

// ResultsResponse is the body of GET /v1/results.
type ResultsResponse struct {
	Results []ResultWire `json:"results"`
	// Complete is true once the run finished cleanly: no further results
	// will ever be released. A suspended run (shutdown with final=false)
	// is not complete — it is resumable, and more results follow after
	// resume.
	Complete bool `json:"complete"`
}

// RegistrationResponse is the body of a successful POST /v1/queries.
type RegistrationResponse struct {
	// Index is the querier's position in registration order.
	Index    int `json:"index"`
	Queriers int `json:"queriers"`
}

// MetaResponse is the body of GET /v1/meta.
type MetaResponse struct {
	Name              string `json:"name"`
	PopulationDevices int    `json:"populationDevices"`
	DurationDays      int    `json:"durationDays"`
	Queriers          int    `json:"queriers"`
	State             string `json:"state"`
	Resumed           bool   `json:"resumed"`
}

// ShutdownRequest is the body of POST /v1/shutdown. Final (the default)
// closes out the trace: the in-progress day flushes and the run completes
// as if the source had drained. final=false suspends instead: the queue
// drains, the WAL syncs, a final generation commits, and the run can be
// resumed from the checkpoint directory. An empty body selects the
// default; a non-empty body that fails to decode is a 400 — shutdown is
// irreversible, so a corrupted suspend request must not fall through to
// the close-out default.
type ShutdownRequest struct {
	Final *bool `json:"final"`
}

// ShutdownResponse summarizes the drained run.
type ShutdownResponse struct {
	State          string `json:"state"`
	EventsIngested int    `json:"eventsIngested"`
	EventsDropped  int    `json:"eventsDropped"`
	Results        int    `json:"results"`
	Error          string `json:"error,omitempty"`
}
