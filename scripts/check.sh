#!/bin/sh
# check.sh — the repo's full verification gate:
#   1. tier-1: go build ./... && go test ./..., then every Benchmark
#      function of the module run once (-benchtime 1x): tier-1 compiles
#      them but never runs one, so a benchmark that panics or fails is
#      caught only here
#   2. gofmt -l . lists nothing (every Go file, benchmark/ included, is
#      gofmt-formatted); no non-test Go file imports encoding/gob except
#      internal/metadb/gobconvert.go, the one-way reader of gob-era
#      catalog directories; no non-test Go file of the module reads a
#      little-endian fixed-width field or a varint except through
#      internal/codec, the one bounded decoder (the CRC record header of
#      internal/metadb/wal.go and gobconvert.go excepted); no non-test Go
#      file outside benchmark/ calls .Accept() except
#      internal/wire/conns.go, the one connection lifecycle (wire.ConnSet),
#      and internal/fault's wrapping Listener; then go vet ./...
#   3. govulncheck (soft-fail: warns when the tool or network is absent)
#   4. race-enabled test suite, then a short race stress of the races
#      closed around cancelled dispatch, the server's sendfile path and
#      the client's readv landing: TestParallelDispatchCancellation, the
#      TestZeroCopy equivalence tests and the TestDirectLanding
#      equivalence and ownership tests, 50 runs each; of the brick
#      data cache, which keeps the buffers cache fills land in:
#      TestDataRace, TestDataInvalidatePoisonsInflightFill and
#      TestDataPutCopies, 50 runs each; and of the connection lifecycle
#      both ports share (claim, release, drain, close, hand-over):
#      wire.ConnSet's own TestConnSet* tests, the I/O server's
#      TestShutdownDrainsInflight,
#      TestShutdownDeadlineForces, TestShutdownIdle and TestServerClose,
#      the catalog's TestServerClose, TestShutdownDrains and
#      TestClientCloseInterruptsStatement, and the replica's
#      TestCloseFailsPendingAcks and TestSQLDrainKeepsReplicationStreams,
#      20 runs each
#   5. seeded chaos suite under -race (fault injection e2e), plus a
#      3-seed DPFS_CHAOS_SWEEP including the replica-failover,
#      catalog-storm (seed*-metashard: the one catalog under delays on
#      its connections), metarepl and gossip modes
#   6. five seconds of every Fuzz* target in the module, found per
#      package with go test -list '^Fuzz': the server's selection and
#      scatter loops, metadb's parser, catalog codec and catalog record,
#      the planner, the data port's frame decoders, the gossip delta
#      and message decoders and the span trailer decoder; their seed
#      corpora already ran in tier-1
#   7. three smoke runs of dpfs-bench: -ablation parallel; -ablation
#      meta, whose creates go end to end through a durable catalog and
#      an R=3 metarepl group; and -ablation cache, whose rereads fill
#      the brick data cache and run readahead end to end
#   8. documentation lint (godoc coverage, markdown links, flag tables
#      and the flags of documented command lines)
#   9. obslint: metric names vs the frozen manifest + Prometheus
#      exposition validity (scripts/obslint.sh)
#  10. the benchmark module (benchmark/, its own go.mod, so the steps
#      above do not descend into it): go vet + its -quick run as a test
# Run from the repo root (or anywhere inside it).
set -eu
cd "$(dirname "$0")/.."

echo "== tier-1: go build ./... =="
go build ./...
echo "== tier-1: go test ./... =="
go test ./...
echo "== every Benchmark once: go test -run '^$' -bench . -benchtime 1x ./... =="
go test -run '^$' -bench . -benchtime 1x ./...
echo "== gofmt -l . =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files are not formatted (run gofmt -w on them):" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "== encoding/gob: only the gob-era catalog converter =="
gobusers=$(grep -rl --include='*.go' '"encoding/gob"' . |
	grep -v -e '_test\.go$' -e '^\./internal/metadb/gobconvert\.go$' || true)
if [ -n "$gobusers" ]; then
	echo "encoding/gob: only internal/metadb/gobconvert.go may import it; also:" >&2
	echo "$gobusers" >&2
	exit 1
fi
echo "== one decoder: fixed-width and varint reads only in internal/codec =="
rawreads=$(grep -rnE --include='*.go' \
	'(binary\.(LittleEndian|BigEndian)|\<le)\.Uint(16|32|64)\(|binary\.(Uvarint|Varint|ReadUvarint|ReadVarint|Read)\(' . |
	grep -v -e '^\./benchmark/' -e '^[^:]*_test\.go:' -e '^\./internal/codec/' \
		-e '^\./internal/metadb/wal\.go:' -e '^\./internal/metadb/gobconvert\.go:' || true)
if [ -n "$rawreads" ]; then
	echo "binary reads: decode through internal/codec's Decoder; these read fields themselves:" >&2
	echo "$rawreads" >&2
	exit 1
fi
echo "== one connection lifecycle: .Accept() only in wire.ConnSet and internal/fault =="
accepts=$(grep -rn --include='*.go' '\.Accept()' . |
	grep -v -e '^\./benchmark/' -e '^[^:]*_test\.go:' \
		-e '^\./internal/wire/conns\.go:' -e '^\./internal/fault/fault\.go:' || true)
if [ -n "$accepts" ]; then
	echo "accept loops: serve conns through wire.Serve (internal/wire/conns.go); these accept themselves:" >&2
	echo "$accepts" >&2
	exit 1
fi
echo "== go vet ./... =="
go vet ./...
echo "== govulncheck ./... (advisory) =="
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./... || echo "WARNING: govulncheck failed or found issues (tool/network problem?); not blocking the gate" >&2
else
	echo "WARNING: govulncheck not installed; skipping the vulnerability scan (go install golang.org/x/vuln/cmd/govulncheck@latest)" >&2
fi
echo "== doccheck: godoc, links, flag tables, command lines =="
go run ./scripts/doccheck
echo "== obslint: metric-name manifest + Prometheus format =="
sh scripts/obslint.sh
echo "== go test -race ./... =="
go test -race ./...
echo "== race stress: cancelled dispatch, zero-copy reads, direct landing, the data cache, the conn lifecycle =="
go test -race -count=50 -run 'TestParallelDispatchCancellation|TestZeroCopy|TestDirectLanding' ./internal/core ./internal/server
go test -race -count=50 -run 'TestDataRace|TestDataInvalidatePoisonsInflightFill|TestDataPutCopies' ./internal/cache
go test -race -count=20 -run '^(TestConnSet.*|TestShutdownDrainsInflight|TestShutdownDeadlineForces|TestShutdownIdle|TestServerClose|TestShutdownDrains|TestClientCloseInterruptsStatement|TestCloseFailsPendingAcks|TestSQLDrainKeepsReplicationStreams)$' \
	./internal/wire ./internal/server ./internal/metadb/mdbnet ./internal/metarepl
echo "== chaos: seeded fault-injection suite (-race) =="
go test -race -count=1 -run Chaos .
DPFS_CHAOS_SWEEP=3 go test -race -count=1 -run Chaos ./internal/fault
echo "== fuzz: every Fuzz* target, 5s each =="
go test -list '^Fuzz' ./... |
	awk '/^Fuzz/ { t[n++] = $1; next } /^ok/ { for (i = 0; i < n; i++) print $2, t[i]; n = 0 }' |
	while read -r pkg target; do
		go test -run '^$' -fuzz "^${target}\$" -fuzztime 5s "$pkg"
	done
echo "== bench smoke: dpfs-bench -ablation parallel, -ablation meta, -ablation cache =="
go run ./cmd/dpfs-bench -ablation parallel -n 128 -reps 1 -csv > /dev/null
go run ./cmd/dpfs-bench -ablation meta -n 128 -reps 1 -csv > /dev/null
go run ./cmd/dpfs-bench -ablation cache -n 128 -reps 1 -csv > /dev/null
echo "== benchmark module: go vet + go test =="
(cd benchmark && go vet . && go test .)
echo "== all checks passed =="
