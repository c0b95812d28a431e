// The benchmark is a module of its own so that the repository's
// `go build ./...` and `go test ./...` neither build nor run it. It
// imports the repository's packages through the replace below; the
// import path keeps the repro/ prefix, which is what lets it reach
// repro/internal/...
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
