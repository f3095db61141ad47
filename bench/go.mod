// The benchmark is a module of its own so that the root module's build
// (`go build ./... && go test ./...`) neither includes nor depends on it;
// it reaches the planner's packages through the replace below.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
