# Stdlib-only Go module; these targets just bundle the common flows.

GO ?= go

.PHONY: all build vet test race bench tables golden cover clean serve soak

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Run the planning service in the foreground (Ctrl-C to stop).
serve:
	$(GO) run ./cmd/dpmd -addr :8080

# Chaos soak: a live server behind seeded fault injection, hammered by
# retrying clients under the race detector (-short bounds iterations).
soak:
	$(GO) test -race -count=1 -run TestChaosSoak ./internal/chaostest/

# Regenerate every table and figure from the paper's evaluation.
tables:
	$(GO) run ./cmd/tables -all

# Refresh the locked experiment-output snapshot after an intentional
# change.
golden:
	$(GO) test ./cmd/tables -run Golden -update

cover:
	$(GO) test ./... -coverprofile=cover.out && $(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt
