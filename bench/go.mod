// The benchmark is a module of its own so that the root module's
// `go build ./...` and `go test ./...` never see it: tier-1 cannot start a
// workload, and its wall time does not grow. The import path keeps the
// `repro/` prefix, which is what lets it import `repro/internal/...`.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
