# Convenience targets for the PACOR reproduction workspace.

CARGO ?= cargo

.PHONY: verify build test fmt-check clippy doc-check bench tables obs-smoke stream-smoke bench-flow bench-smoke bench-check digest-smoke golden profile

# The acceptance gate: release build, full test suite (which includes
# the escape solver's min-cost-flow optimality certificate on 300
# random scenarios, crates/flow/src/certificate.rs, and the
# EXPERIMENTS.md gate, tests/chips.rs), rustfmt-clean sources,
# zero-warning lints and docs, the golden end-to-end snapshots (all chips,
# release mode), a smoke-run of the observability exports, a smoke-run
# of the streaming telemetry, a smoke-run of the end-to-end flow
# benchmark harness, a run-identity, attribution and stage-budget check
# of the B1, B2 and B4 benchmark tiers against the committed
# BENCH_flow.json baseline, and a smoke-run of the run-digest / differ
# loop.
verify: build test fmt-check clippy doc-check golden obs-smoke stream-smoke bench-smoke bench-check digest-smoke

build:
	$(CARGO) build --release --workspace

test:
	$(CARGO) test -q --workspace

# Every workspace member must be rustfmt-clean (perfbench/ is a package
# of its own and is not checked here).
fmt-check:
	$(CARGO) fmt --all -- --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Every workspace member's rustdoc builds without a warning: a doc link
# to a deleted or private item fails here.
doc-check:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

bench:
	$(CARGO) bench -p pacor-bench --bench kernels
	$(CARGO) bench -p pacor-bench --bench escape_solve
	$(CARGO) bench -p pacor-bench --bench components

# The full end-to-end flow benchmark: one entry per chip, written to
# BENCH_flow.json at the repo root (takes minutes).
bench-flow:
	$(CARGO) run --release -p pacor-bench --bin bench_flow -- --repeat 5 --out BENCH_flow.json

# Timing regression gate: re-run the smallest benchmark chip and check
# it against the committed BENCH_flow.json baseline on three rules.
# Run identity: the fresh run's digest_hash (FNV-1a of its deterministic
# run digest) must equal the baseline's, or the baseline's timings
# belong to a different run. What a run routed and counted is gated by
# the golden digests (`make golden`,
# tests/fixtures/golden/<chip>.digest.json), whose bytes that hash
# names. Attribution: more than 5% AND more than 1 ms of wall_ms
# outside every stage fails. Stage budgets: a fresh stage_ms more than
# 25% AND more than 25 ms over its committed baseline fails (the
# absolute floor keeps sub-millisecond stages from flaking on
# scheduler jitter). The same rule gates the escape_ms sub-stages
# (net_solve — the round solves — / phase1-3), so an escape-internal
# regression cannot hide inside a stage that still fits its overall
# budget.
# Re-baseline with `make bench-flow` after an intentional routing or
# performance change.
#
# The second run applies the same rules to B2-dense48, the smallest chip
# whose escape stage reaches recovery and the last resort (phases 2 and
# 3; B1's recovery takes about 1 ms and B4 never leaves phase 1), so a
# change in what escape recovery rips, re-routes or solves fails the
# gate. The 25 ms floor keeps its budgets from flaking: B2's whole
# escape stage takes about 40 ms.
#
# The third run gates the large-chip tier: B4-dense256's entry must be
# the baseline's run and add up, with no per-stage budgets (its golden
# digest pins that it routes every valve).
#
# The rules live in `tables regress` (crates/bench/src/bin/tables.rs),
# which re-runs the chip's schedule in-process; pass `--current FILE`
# to check an existing bench_flow output instead.
bench-check:
	$(CARGO) run --release -p pacor-bench --bin tables -- regress BENCH_flow.json --chip B1-dense24
	$(CARGO) run --release -p pacor-bench --bin tables -- regress BENCH_flow.json --chip B2-dense48
	$(CARGO) run --release -p pacor-bench --bin tables -- regress BENCH_flow.json --chip B4-dense256

# The run-digest / differ loop, end to end: route S1 twice with the
# same flags — the two digests must be byte-identical up to the
# trailing `wall` object (it is rendered last precisely so this is a
# string-prefix check), and `tables compare` must find no verdicts.
# Then a different problem under the same design name (S1 synthesized
# at design seed 7) must make `tables compare` exit non-zero.
digest-smoke:
	$(CARGO) run --release --bin pacor-cli -- route --quiet \
		--digest-out target/digest_smoke_a.json S1
	$(CARGO) run --release --bin pacor-cli -- route --quiet \
		--digest-out target/digest_smoke_b.json S1
	python3 -c "\
	a = open('target/digest_smoke_a.json').read(); \
	b = open('target/digest_smoke_b.json').read(); \
	assert a[:a.index('\"wall\"')] == b[:b.index('\"wall\"')], 'digests diverge before the wall object'; \
	print('digest-smoke: wall-masked digests byte-identical')"
	$(CARGO) run --release -p pacor-bench --bin tables -- compare \
		target/digest_smoke_a.json target/digest_smoke_b.json
	$(CARGO) run --release --bin pacor-cli -- synth S1 7 > target/digest_smoke_s1_7.json
	$(CARGO) run --release --bin pacor-cli -- route --quiet \
		--digest-out target/digest_smoke_c.json target/digest_smoke_s1_7.json
	! $(CARGO) run --release -p pacor-bench --bin tables -- compare \
		target/digest_smoke_a.json target/digest_smoke_c.json > target/digest_smoke_diff.txt
	@echo "digest-smoke: different problem flagged with non-zero exit"

# Cheap harness exercise for CI: one tiny chip (1 entry), result
# discarded.
bench-smoke:
	$(CARGO) run --release -p pacor-bench --bin bench_flow -- --smoke --repeat 1 --out target/bench_flow_smoke.json
	python3 -c "import json; r = json.load(open('target/bench_flow_smoke.json')); assert len(r['entries']) == 1, r; print('bench-smoke: harness produced', len(r['entries']), 'entries')"

# Golden end-to-end snapshots for every bench chip (B0-B4), in release
# mode: the deterministic run digest (`<chip>.digest.json`) and the
# post-mortem per chip, plus the deterministic telemetry stream
# (`*.telemetry.jsonl`) of B0-B2. Tier-1 runs the same tests in debug.
# Regenerate fixtures after an intentional routing change with
# `UPDATE_GOLDEN=1 make golden`, then `make bench-flow` when a digest
# moved (a post-mortem-only change moves no `digest_hash`).
golden:
	$(CARGO) test --release --test golden_flow

# Per-stage wall-clock attribution for the largest bench chip: prints
# the top spans by exclusive time and writes a Perfetto-loadable Chrome
# trace. This profile decides which stage an optimization PR attacks.
# PROFILE_ARGS picks another design, variant or seed, e.g.
# `make profile PROFILE_ARGS='--chip lm_congested --variant wo-sel --seed 10'`
# for the negotiation- and detour-heavy workload, or
# `--chip Chip1 --variant wo-sel` for the paper-scale escape solve.
PROFILE_ARGS ?= --chip B3-dense96 --top 5
profile:
	$(CARGO) run --release -p pacor-bench --bin profile_flow -- \
		$(PROFILE_ARGS) --trace-out target/profile_flow_trace.json

tables:
	$(CARGO) run --release -p pacor-bench --bin tables -- all

# Route one small design with the trace and digest exports enabled and
# check that each output file parses as JSON.
obs-smoke:
	$(CARGO) run --release --bin pacor-cli -- route --quiet \
		--trace-out target/obs_smoke_trace.json \
		--digest-out target/obs_smoke_digest.json S1
	python3 -c "import json; json.load(open('target/obs_smoke_trace.json')); json.load(open('target/obs_smoke_digest.json')); print('obs-smoke: both exports are valid JSON')"

# Route one small design with the telemetry stream (and the digest, for
# cross-checking) enabled: every line must parse as a versioned event,
# the envelope must be flow_started ... flow_finished with a seq chain
# and a correct terminal event count, every stage must exit, and the
# per-round events must match the run's negotiate.rounds counter.
stream-smoke:
	$(CARGO) run --release --bin pacor-cli -- route --quiet \
		--stream-out target/stream_smoke.jsonl \
		--digest-out target/stream_smoke_digest.json S2
	python3 -c "\
	import json; \
	events = [json.loads(l) for l in open('target/stream_smoke.jsonl') if l.strip()]; \
	assert all(e['schema'] == 'pacor-telemetry-v1' for e in events), 'unversioned event'; \
	assert [e['seq'] for e in events] == list(range(len(events))), 'seq chain broken'; \
	assert events[0]['kind'] == 'flow_started' and events[-1]['kind'] == 'flow_finished', [e['kind'] for e in events]; \
	assert events[-1]['events'] == len(events) - 1, (events[-1]['events'], len(events)); \
	exited = [e['stage'] for e in events if e['kind'] == 'stage_exited']; \
	assert exited == ['clustering', 'lm_routing', 'mst_routing', 'escape', 'detour'], exited; \
	rounds = sum(e['kind'] == 'round_progress' for e in events); \
	m = json.load(open('target/stream_smoke_digest.json')); \
	assert rounds == m['counters']['negotiate.rounds'], (rounds, m['counters']['negotiate.rounds']); \
	escapes = [e for e in events if e['kind'] == 'escape_progress']; \
	assert escapes and all(0 <= e['valves_routed'] <= events[0]['valves'] for e in escapes), escapes; \
	assert escapes[-1]['valves_routed'] == events[0]['valves'], ('S2 escapes every valve', escapes[-1]); \
	print('stream-smoke:', len(events), 'events,', rounds, 'rounds,', escapes[-1]['valves_routed'], 'valves escaped, all valid pacor-telemetry-v1')"
