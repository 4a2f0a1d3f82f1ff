GO ?= go

.PHONY: all build vet test race bench fuzz cover reproduce examples clean

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

fuzz:
	$(GO) test ./internal/transport/ -fuzz FuzzReadMessage -fuzztime 30s
	$(GO) test ./internal/transport/ -fuzz FuzzRoundTrip -fuzztime 30s
	$(GO) test ./internal/transport/ -fuzz FuzzDecodeFrame -fuzztime 30s
	$(GO) test ./internal/transport/ -fuzz FuzzLedgerSyncFrame -fuzztime 30s
	$(GO) test ./internal/transport/ -fuzz FuzzPrefixAnnounceFrame -fuzztime 30s
	$(GO) test ./internal/transport/ -fuzz FuzzMemberSyncFrame -fuzztime 30s
	$(GO) test ./internal/transport/ -fuzz FuzzMergeInfoFrame -fuzztime 30s
	$(GO) test ./internal/transport/ -fuzz FuzzClusterGetFrame -fuzztime 30s
	$(GO) test ./internal/media/ -fuzz FuzzContentAt -fuzztime 30s

cover:
	$(GO) test -cover ./...

# Regenerate every paper table/figure and all extension studies.
reproduce:
	$(GO) run ./cmd/vodsim
	$(GO) run ./cmd/vodbench -study all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/grnet
	$(GO) run ./examples/streaming
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/campus

clean:
	$(GO) clean ./...
