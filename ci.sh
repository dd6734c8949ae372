#!/usr/bin/env bash
# ci.sh — the repo's check gate, and all of it: the GitHub Actions
# workflow installs Go and staticcheck and runs this script, nothing
# else. Run it locally before pushing. Its passes, in order:
#   - gofmt, go vet, staticcheck (CM_SKIP_STATICCHECK=1 opts out offline)
#   - guards: unsafe only in internal/matrix/matrix.go; interp.New only in internal/driver/driver.go;
#     whole-matrix arithmetic on the strip engine alone (no ew*/bc* loops; floatScratch for matmul, conv, SetIndex)
#   - go build; no binary of cmd/ links a test-only symbol (matrix *Ref, loopir.(*Env));
#     then go test (the allocation ceilings of alloc_ceiling_test.go included)
#   - go test -race, a package at a time (-race turns checkptr on over the matrix header)
#   - the strip engine and the fused corpus entries on a GOAMD64=v3 build (FMA hardware)
#   - the C back end against the interpreter (gcc-guarded)
#   - the service contract, the fleet's chaos suites, the tenant registry
#   - the VM differential corpus under -race (the err_global_* entries: a global read or written before it is bound),
#     vet's flat with-loop sites and chains against the VM's (TestWithSitesAreTheVMs), and the checker rejecting
#     every program that reaches a VM bail (TestBailsAreCheckerRejected)
#   - ten-second fuzz smokes
#   - the vet findings manifest
#   - one-shot benchmark smokes, and a scaling smoke when there are two CPUs
#   - the bench/ module (its own go.mod): vet, tests, a two-second run of each workload
#   - the hot loops' code layout (informational)
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
elif [ "${CM_SKIP_STATICCHECK:-}" = "1" ]; then
    echo "staticcheck not installed; skipped via CM_SKIP_STATICCHECK=1"
else
    echo "staticcheck is required and not installed." >&2
    echo "install: go install honnef.co/go/tools/cmd/staticcheck@latest" >&2
    echo "or set CM_SKIP_STATICCHECK=1 for environments without network access" >&2
    exit 1
fi

echo "== unsafe: the matrix header's data word and nothing else =="
unsafe_files=$(grep -rl --include='*.go' --exclude='*_test.go' '^\s*\(import \)\?"unsafe"$' internal/ || true)
if [ "$unsafe_files" != "internal/matrix/matrix.go" ]; then
    echo "non-test files under internal/ importing unsafe (want internal/matrix/matrix.go alone):" >&2
    echo "$unsafe_files" >&2
    exit 1
fi
go vet ./internal/matrix

echo "== interp.New: production builds an interpreter in the driver alone =="
interp_files=$(grep -rl --include='*.go' --exclude='*_test.go' 'interp\.New(' internal/ cmd/ || true)
if [ "$interp_files" != "internal/driver/driver.go" ]; then
    echo "non-test files under internal/ and cmd/ calling interp.New (want internal/driver/driver.go alone):" >&2
    echo "$interp_files" >&2
    exit 1
fi

echo "== whole-matrix arithmetic: one engine (the strip programs) =="
ew_loops=$(grep -nE '^func (ew|bc)[A-Z]' $(find internal/matrix -name '*.go' ! -name '*_test.go') || true)
if [ -n "$ew_loops" ]; then
    echo "elementwise/broadcast loops outside the strip engine (a lone operator runs as a one-node strip program):" >&2
    echo "$ew_loops" >&2
    exit 1
fi
scratch_callers=$(awk '/^func /{f=$0; sub(/^func (\([^)]*\) )?/, "", f); sub(/[[(].*/, "", f)}
    /floatScratch\(/ && !/^func floatScratch/ {print f}' $(find internal -name '*.go' ! -name '*_test.go') | sort -u | tr '\n' ' ')
if [ "$scratch_callers" != "Conv2DExec MatMulExec SetIndex " ]; then
    echo "floatScratch callers: $scratch_callers(want Conv2DExec MatMulExec SetIndex; a lone operator converts as it loads)" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== no production binary links a test-only symbol (the matrix *Ref oracles, the loop-IR interpreter) =="
cmd_bin=$(mktemp -d)
go build -o "$cmd_bin/" ./cmd/...
for bin in "$cmd_bin"/*; do
    oracles=$(go tool nm "$bin" | awk '$3 ~ /^repro\/internal\/matrix\.[A-Za-z0-9_]*Ref$/ || $3 ~ /^repro\/internal\/loopir\.\(\*Env\)/ {print $3}')
    if [ -n "$oracles" ]; then
        echo "$(basename "$bin") links test-only symbols:" >&2
        echo "$oracles" >&2
        rm -rf "$cmd_bin"
        exit 1
    fi
done
rm -rf "$cmd_bin"

echo "== go test =="
go test ./...

echo "== go test -race (crash-proofing + overload layers; with rc, vm and the corpus below, checkptr over the matrix header) =="
go test -race ./internal/par ./internal/matrix ./internal/matio ./internal/obs ./internal/interp ./internal/server ./internal/driver
go test -race -run '^TestLadderRungsVisitEachUnitOnce$' -count=1 .

echo "== go test -race (rc: one live count under concurrent binds and releases) =="
go test -race ./internal/rc

echo "== go test -race (frontend: generated scanner + LALR driver off one shared table, AG evaluator + sem off one composed grammar) =="
go test -race ./internal/lexer ./internal/grammar ./internal/parser
go test -race ./internal/attr ./internal/sem
go test -race -run 'TestSemMatchesParent|TestCheckSharesOneGrammar' -count=1 .

echo "== with-loop and chain plans in vet (range and promoting leaves as goldens); the VM whole: pooled frames, flat execution, fused chains, golden hot-loop listings, the tick's countdown poll seen from a spawn and a with-loop cell (race) =="
go test -race -run 'TestWithPlan|TestWithFlat|TestCompileWith|TestWithNested|TestWithStrip|TestChain' ./internal/vet
go test -race ./internal/vm

echo "== GOAMD64=v3 (FMA hardware): a strip instruction computing a two-node tree rounds each node, and parallel bits equal serial ones =="
if grep -qw fma /proc/cpuinfo 2>/dev/null && grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
    GOAMD64=v3 go test -count=1 -run 'TestWithStrip|TestWithRowFold|TestCompileWith|TestChain|TestKernelDiff' ./internal/matrix
    GOAMD64=v3 go test -count=1 -run 'TestVMDifferentialCorpus/(fused_shapes|err_fused_shapes|chain_|nested_fold_rows|err_readmatrix_|readmatrix_)' .
else
    echo "no FMA/AVX2 on this CPU: skipped"
fi

echo "== C back end against the interpreter (gcc-guarded: Fig 8, Fig 11, vectorize stride regression) =="
go test -run 'TestE3|TestFig8Compiled|TestVectorize' -count=1 ./internal/cgen

echo "== service contract (cmrun's body through a shard's strict decoder; race) =="
go test -race -run 'TestRunRemoteBodyPassesShardDecoder' -count=1 ./cmd/cmrun

echo "== fleet (chaos: kill / restart / hang / slow shards under flood; tenants; metrics keys) =="
go test -race ./internal/fleet
go test -race -run '^TestGateHealthzDegraded$' -count=20 ./internal/fleet

echo "== tenant registry + buckets (race) =="
go test -race ./internal/tenant

echo "== vm differential (bytecode engine vs tree-walking oracle, with facts and without; the frame_* entries are what a reused frame gets wrong, the chain_range_* / chain_promote_* / err_oom_chain_* entries what a fused range or promoting leaf does, the err_global_* entries a global read or written before it is bound; the MaxSteps sweep over every loop shape; vet's flat with-loop sites and chains are the VM's; every bail is checker-rejected; race) =="
go test -race -run 'TestVMDifferential|TestVMStep|TestWithSitesGolden|TestWithSitesAreTheVMs' -count=1 .
go test -race -run 'TestBailsAreCheckerRejected' -count=1 ./internal/vm

echo "== fuzz smoke (frontend + analyzer never panic) =="
go test -run='^$' -fuzz='^FuzzLex$' -fuzztime=10s ./internal/parser
go test -run='^$' -fuzz='^FuzzScanDiff$' -fuzztime=10s ./internal/parser
go test -run='^$' -fuzz='^FuzzParse$' -fuzztime=10s ./internal/parser
go test -run='^$' -fuzz='^FuzzVet$' -fuzztime=10s ./internal/vet
go test -run='^$' -fuzz='^FuzzKernelDiff$' -fuzztime=10s ./internal/matrix
go test -run='^$' -fuzz='^FuzzVMDiff$' -fuzztime=10s .
go test -run='^$' -fuzz='^FuzzRing$' -fuzztime=10s ./internal/fleet
go test -run='^$' -fuzz='^FuzzTenantKeyParse$' -fuzztime=10s ./internal/tenant

echo "== vet manifest (examples + testdata findings pinned) =="
go test -run='^TestVetManifest$' .

echo "== bench smoke =="
go test -run='^$' -bench='BenchmarkE1_' -benchtime=1x .
go test -run='^$' -bench='BenchmarkCompileService' -benchtime=1x ./internal/driver
go test -run='^$' -bench='Kernel' -benchtime=1x .
go test -run='^$' -bench='VetFacts|FusedChain' -benchtime=1x .
go test -run='^$' -bench='FrontendCold|SemCheck' -benchtime=1x .

echo "== scaling smoke (2 threads never slower than 1; BENCH_scaling.json has the grid) =="
if [ "$(nproc)" -ge 2 ]; then
    go test -run '^TestScalingSmoke$' -scaling-smoke -count=1 -v . | grep -v '^=== '
else
    echo "one CPU: skipped"
fi

echo "== bench module (vet + tests + smoke run) =="
(cd bench && go vet ./... && go test ./...)
for w in compute_parallel compute_serial serve_warm serve_cold; do
    bash bench/run.sh -workload "$w" -seconds 2 -trace 0 >/dev/null
done

echo "== code layout of the hot loops (address mod 64; informational: EXPERIMENTS E21, E22, E24–E31 record parent and change) =="
syms=$(go tool nm -size .bench_build/bench |
    grep -E ' T (repro/internal/vm\.\(\*Machine\)\.exec|repro/internal/matrix\.\(\*wState\)\.(eval|walk)|repro/internal/matrix\.(mm2x4|stripArith|stripLoad|boxCopy|arithSS|arithSU|fusedStrips|stripFold|foldRuns4)\[go\.shape\.float64\]|repro/internal/matrix\.transposePanels\[go\.shape\.int64\])$') || syms=""
if [ -z "$syms" ]; then
    echo "no hot-loop symbol matched (renamed, inlined, or named otherwise by this toolchain)"
else
    while read -r addr _ _ name; do echo "$name $((16#$addr % 64))"; done <<<"$syms"
fi

echo "OK"
