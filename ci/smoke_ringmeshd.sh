#!/usr/bin/env bash
# Smoke test for the serving daemon: build ringmeshd, boot it with
# profiling enabled (-pprof), check health and metrics (including
# latency histogram buckets and a CPU profile fetch), submit the same run twice and
# assert the second is answered from the result cache — including a
# resubmission with a different "workers" value, which must still hit
# (the cache key ignores the execution-only Workers field) — fetch the
# job's lifecycle trace, then shut down gracefully with SIGTERM.
#
# Then the two resilience claims, end to end:
#   - durability: boot with -cache-dir, kill -9 mid-load, restart over
#     the same directory, and prove the pre-crash result is served
#     from the disk tier (the cache-hit counters are the proof, not
#     wall-clock);
#   - partial failure: boot a 1-coordinator/2-worker trio, kill the
#     workers mid-sweep, and prove the response is a partial-success
#     merge (completed points + structured point_errors + degraded),
#     with retries and breaker trips visible on /metrics.
#
# Later stages add overload (priority admission + shedding), the
# crash-safe journal, and multi-fidelity serving (an auto request
# answered analytically under load, upgraded to exact in the
# background).
#
# No dependencies beyond curl and the Go toolchain.
set -euo pipefail

cd "$(dirname "$0")/.."

bin=$(mktemp -d)/ringmeshd
log=$(mktemp)
go build -o "$bin" ./cmd/ringmeshd

"$bin" -addr 127.0.0.1:0 -pprof >"$log" 2>&1 &
pid=$!
cleanup() { kill "$pid" 2>/dev/null || true; }
trap cleanup EXIT

# The daemon logs its resolved ephemeral address on startup as a
# structured "listening" event with an addr= attribute.
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/.*msg=listening addr=\([0-9.:]*\).*/\1/p' "$log" | head -n 1)
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "FAIL: ringmeshd did not start"; cat "$log"; exit 1
fi
base="http://$addr"

grep -q '"ok"' <<<"$(curl -fsS "$base/healthz")" || { echo "FAIL: healthz"; exit 1; }

body='{"config":{"network":"mesh","nodes":16,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":42},"options":{"warmup_cycles":500,"batch_cycles":500,"batches":2}}'

first=$(curl -fsS -X POST "$base/v1/runs" -d "$body" | tr -d '[:space:]')
id=$(printf '%s' "$first" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
if [ -z "$id" ]; then
  echo "FAIL: no job id in response: $first"; exit 1
fi

doc=""
for _ in $(seq 1 200); do
  doc=$(curl -fsS "$base/v1/jobs/$id" | tr -d '[:space:]')
  case "$doc" in
    *'"state":"done"'*) break ;;
    *'"state":"failed"'*) echo "FAIL: job failed: $doc"; exit 1 ;;
  esac
  sleep 0.1
done
case "$doc" in
  *'"state":"done"'*) ;;
  *) echo "FAIL: job never finished: $doc"; exit 1 ;;
esac

second=$(curl -fsS -X POST "$base/v1/runs" -d "$body" | tr -d '[:space:]')
case "$second" in
  *'"cached":true'*) ;;
  *) echo "FAIL: identical resubmission not served from cache: $second"; exit 1 ;;
esac
case "$second" in
  *'"state":"done"'*) ;;
  *) echo "FAIL: cached resubmission not complete: $second"; exit 1 ;;
esac

# The same logical run spelled with an explicit engine worker count
# must still hit the cache: "workers" is execution-only (the daemon
# runs every point serial) and never enters the cache key.
wbody='{"config":{"network":"mesh","nodes":16,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":42,"workers":4},"options":{"warmup_cycles":500,"batch_cycles":500,"batches":2}}'
third=$(curl -fsS -X POST "$base/v1/runs" -d "$wbody" | tr -d '[:space:]')
case "$third" in
  *'"cached":true'*) ;;
  *) echo "FAIL: resubmission with workers=4 not served from cache: $third"; exit 1 ;;
esac

metrics=$(curl -fsS "$base/metrics")
grep -q '^ringmeshd_cache_hits_total [1-9]' <<<"$metrics" \
  || { echo "FAIL: no cache hit recorded:"; echo "$metrics"; exit 1; }
grep -q '^ringmeshd_cache_misses_total 1$' <<<"$metrics" \
  || { echo "FAIL: expected exactly one cache miss:"; echo "$metrics"; exit 1; }
# Telemetry: the completed job left run-duration histogram buckets
# labeled by family and outcome, and runtime health gauges are live.
grep -q 'ringmeshd_job_run_seconds_bucket{family="mesh",outcome="done",le="+Inf"}' <<<"$metrics" \
  || { echo "FAIL: no run-duration histogram buckets:"; echo "$metrics"; exit 1; }
grep -q '^go_goroutines ' <<<"$metrics" \
  || { echo "FAIL: no runtime gauges:"; echo "$metrics"; exit 1; }

# The job's lifecycle trace is served as Chrome trace-event JSON.
trace=$(curl -fsS "$base/v1/jobs/$id/trace")
case "$trace" in
  *'"traceEvents"'*'"queue-wait"'*) ;;
  *) echo "FAIL: job trace missing lifecycle spans: $trace"; exit 1 ;;
esac

# Profiling is mounted (we booted with -pprof): a 1-second CPU profile
# must come back non-empty.
prof=$(mktemp)
curl -fsS -o "$prof" "$base/debug/pprof/profile?seconds=1" \
  || { echo "FAIL: pprof profile fetch"; exit 1; }
[ -s "$prof" ] || { echo "FAIL: empty CPU profile"; exit 1; }

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
trap - EXIT
if [ "$rc" -ne 0 ]; then
  echo "FAIL: ringmeshd exited $rc on SIGTERM"; cat "$log"; exit 1
fi

echo "PASS: ringmeshd basic smoke ($base, job $id cached on resubmission)"

# ---------------------------------------------------------------------
# Shared helpers for the multi-daemon stages below.

pids=()
cleanup_all() { for p in "${pids[@]}"; do kill -9 "$p" 2>/dev/null || true; done; }
trap cleanup_all EXIT

# boot LOGFILE ARGS... starts a daemon (in this shell, so wait works),
# registers it for cleanup, and reports it via BOOT_PID / BOOT_ADDR.
boot() {
  local blog=$1; shift
  "$bin" -addr 127.0.0.1:0 "$@" >"$blog" 2>&1 &
  BOOT_PID=$!
  pids+=("$BOOT_PID")
  BOOT_ADDR=""
  for _ in $(seq 1 100); do
    BOOT_ADDR=$(sed -n 's/.*msg=listening addr=\([0-9.:]*\).*/\1/p' "$blog" | head -n 1)
    [ -n "$BOOT_ADDR" ] && break
    sleep 0.1
  done
  if [ -z "$BOOT_ADDR" ]; then
    echo "FAIL: daemon did not start"; cat "$blog"; exit 1
  fi
}

# await BASE ID polls a job to "done", failing the script otherwise.
await() {
  local d=""
  for _ in $(seq 1 300); do
    d=$(curl -fsS "$1/v1/jobs/$2" | tr -d '[:space:]')
    case "$d" in
      *'"state":"done"'*) printf '%s' "$d"; return 0 ;;
      *'"state":"failed"'*) echo "FAIL: job $2 failed: $d" >&2; exit 1 ;;
    esac
    sleep 0.1
  done
  echo "FAIL: job $2 never finished: $d" >&2; exit 1
}

submit_id() { # submit_id BASE BODY -> job id
  local r
  r=$(curl -fsS -X POST "$1/v1/runs" -d "$2" | tr -d '[:space:]')
  printf '%s' "$r" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'
}

# ---------------------------------------------------------------------
# Stage 2: durability across kill -9. Compute a result with the disk
# tier on, crash the daemon without ceremony while a second job is
# mid-load, restart over the same directory, and demand the pre-crash
# key is a disk hit — zero recomputation, proven by counters.

cachedir=$(mktemp -d)
dlog1=$(mktemp)
boot "$dlog1" -cache-dir "$cachedir"
dpid1=$BOOT_PID; dbase1="http://$BOOT_ADDR"

durable='{"config":{"network":"mesh","nodes":16,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":7},"options":{"warmup_cycles":500,"batch_cycles":500,"batches":2}}'
did=$(submit_id "$dbase1" "$durable")
[ -n "$did" ] || { echo "FAIL: no job id from durable daemon"; exit 1; }
await "$dbase1" "$did" >/dev/null

# The result must already be on disk (write-through before completion).
ls "$cachedir"/*.rmr >/dev/null 2>&1 \
  || { echo "FAIL: no durable entry after completed job"; ls -la "$cachedir"; exit 1; }

# Put the daemon under load and kill it mid-job: -9, no drain, no
# flushing — the atomic-rename protocol must already have made the
# completed result safe.
heavy='{"config":{"network":"mesh","nodes":256,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":8},"options":{"warmup_cycles":20000,"batch_cycles":20000,"batches":8}}'
curl -fsS -X POST "$dbase1/v1/runs" -d "$heavy" -o /dev/null
kill -9 "$dpid1"
wait "$dpid1" 2>/dev/null || true

dlog2=$(mktemp)
boot "$dlog2" -cache-dir "$cachedir"
dpid2=$BOOT_PID; dbase2="http://$BOOT_ADDR"

replay=$(curl -fsS -X POST "$dbase2/v1/runs" -d "$durable" | tr -d '[:space:]')
case "$replay" in
  *'"cached":true'*'"state":"done"'*|*'"state":"done"'*'"cached":true'*) ;;
  *) echo "FAIL: pre-crash result not served after restart: $replay"; exit 1 ;;
esac
dmetrics=$(curl -fsS "$dbase2/metrics")
grep -q '^ringmeshd_disk_cache_hits_total 1$' <<<"$dmetrics" \
  || { echo "FAIL: restart hit not served from the disk tier:"; echo "$dmetrics" | grep disk_cache; exit 1; }
grep -q '^ringmeshd_cache_misses_total 0$' <<<"$dmetrics" \
  || { echo "FAIL: restart caused a recompute:"; echo "$dmetrics" | grep cache_misses; exit 1; }
kill -TERM "$dpid2"; wait "$dpid2" || { echo "FAIL: durable daemon exited dirty"; exit 1; }

echo "PASS: durability smoke (kill -9 survived; restart served job from disk, 0 misses)"

# ---------------------------------------------------------------------
# Stage 3: coordinator partial failure. A 1-coordinator/2-worker trio
# runs a sweep; both workers are killed -9 mid-sweep. The merged
# response must carry every completed point plus structured errors for
# the rest — degraded, not void — with the retry/breaker machinery
# visible on /metrics.

wlog1=$(mktemp); wlog2=$(mktemp); clog=$(mktemp)
boot "$wlog1"
wpid1=$BOOT_PID; waddr1=$BOOT_ADDR
boot "$wlog2"
wpid2=$BOOT_PID; waddr2=$BOOT_ADDR
boot "$clog" -coordinator -worker-addrs "$waddr1,$waddr2"
cpid=$BOOT_PID; cbase="http://$BOOT_ADDR"

# Small sizes first (they complete before the kill), big sizes last
# (they are still in flight when the workers die).
sweep='{"config":{"network":"mesh","line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":9},"options":{"warmup_cycles":4000,"batch_cycles":4000,"batches":6},"sizes":[16,36,64,100,400,576,784,900]}'
sres=$(curl -fsS -X POST "$cbase/v1/sweeps" -d "$sweep" | tr -d '[:space:]')
sid=$(printf '%s' "$sres" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$sid" ] || { echo "FAIL: no sweep id: $sres"; exit 1; }

# Wait until at least one point has completed, then kill the fleet.
progressed=""
for _ in $(seq 1 300); do
  sdoc=$(curl -fsS "$cbase/v1/jobs/$sid" | tr -d '[:space:]')
  case "$sdoc" in
    *'"progress":0,'*|*'"progress":0}'*) sleep 0.1 ;;
    *) progressed=yes; break ;;
  esac
done
[ -n "$progressed" ] || { echo "FAIL: sweep made no progress: $sdoc"; exit 1; }
kill -9 "$wpid1" "$wpid2"
{ wait "$wpid1" "$wpid2"; } 2>/dev/null || true

# The sweep must still terminate "done" — degraded, with the
# completed points merged in and the dead points classified.
sfinal=""
for _ in $(seq 1 600); do
  sfinal=$(curl -fsS "$cbase/v1/jobs/$sid" | tr -d '[:space:]')
  case "$sfinal" in
    *'"state":"done"'*|*'"state":"failed"'*) break ;;
  esac
  sleep 0.1
done
case "$sfinal" in
  *'"state":"done"'*) ;;
  *) echo "FAIL: sweep did not merge after worker loss: $sfinal"; exit 1 ;;
esac
case "$sfinal" in
  *'"degraded":true'*) ;;
  *) echo "FAIL: sweep not marked degraded: $sfinal"; exit 1 ;;
esac
case "$sfinal" in
  *'"points":['*'"nodes":16'*) ;;
  *) echo "FAIL: completed points missing from merged response: $sfinal"; exit 1 ;;
esac
case "$sfinal" in
  *'"point_errors":['*'"kind":'*) ;;
  *) echo "FAIL: no structured per-point errors: $sfinal"; exit 1 ;;
esac

cmetrics=$(curl -fsS "$cbase/metrics")
grep -q '^ringmeshd_coord_retries_total [1-9]' <<<"$cmetrics" \
  || { echo "FAIL: no retries recorded:"; echo "$cmetrics" | grep coord; exit 1; }
grep -q '^ringmeshd_coord_breaker_trips_total [1-9]' <<<"$cmetrics" \
  || { echo "FAIL: no breaker trips recorded:"; echo "$cmetrics" | grep coord; exit 1; }
grep -q '^ringmeshd_coord_points_failed_total [1-9]' <<<"$cmetrics" \
  || { echo "FAIL: no failed points recorded:"; echo "$cmetrics" | grep coord; exit 1; }

# Dispatch attempts (including retries against the dead fleet) are
# visible in the sweep's trace.
strace=$(curl -fsS "$cbase/v1/jobs/$sid/trace")
case "$strace" in
  *'"dispatch"'*) ;;
  *) echo "FAIL: no dispatch spans in sweep trace"; exit 1 ;;
esac

kill -TERM "$cpid"; wait "$cpid" || { echo "FAIL: coordinator exited dirty"; exit 1; }

echo "PASS: coordinator smoke (fleet killed mid-sweep; merged degraded response with retries+breaker trips)"

# ---------------------------------------------------------------------
# Stage 4: overload. One worker, a tiny queue, a long occupier, and a
# background flood filling every slot. An interactive submission must
# still admit (evicting background), further background work must be
# shed with 503 + Retry-After + the structured body, and the per-class
# admit/shed counters must tell the story on /metrics.

flog=$(mktemp)
boot "$flog" -workers 1 -queue 3
fpid=$BOOT_PID; fbase="http://$BOOT_ADDR"

occupier='{"config":{"network":"mesh","nodes":256,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":20},"options":{"warmup_cycles":20000,"batch_cycles":20000,"batches":8}}'
oid=$(submit_id "$fbase" "$occupier")
[ -n "$oid" ] || { echo "FAIL: no occupier id"; exit 1; }
# Wait until the worker picks it up, so the flood below only competes
# for queue slots, never for the worker.
started=""
for _ in $(seq 1 100); do
  case "$(curl -fsS "$fbase/v1/jobs/$oid" | tr -d '[:space:]')" in
    *'"state":"running"'*) started=yes; break ;;
  esac
  sleep 0.1
done
[ -n "$started" ] || { echo "FAIL: occupier never started"; exit 1; }

bgbody() { printf '{"config":{"network":"mesh","nodes":16,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":%d},"class":"background","options":{"warmup_cycles":500,"batch_cycles":500,"batches":2}}' "$1"; }
bglast=""
for i in 21 22 23; do
  bglast=$(submit_id "$fbase" "$(bgbody "$i")")
  [ -n "$bglast" ] || { echo "FAIL: background flood job $i rejected early"; exit 1; }
done

# Interactive (default class) still admits at the full queue.
inter='{"config":{"network":"mesh","nodes":16,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":24},"options":{"warmup_cycles":500,"batch_cycles":500,"batches":2}}'
iid=$(submit_id "$fbase" "$inter")
[ -n "$iid" ] || { echo "FAIL: interactive submission shed under background flood"; exit 1; }

# Its victim: the newest background job, failed with the shed taxonomy.
vdoc=$(curl -fsS "$fbase/v1/jobs/$bglast" | tr -d '[:space:]')
case "$vdoc" in
  *'"state":"failed"'*'"kind":"shed"'*|*'"kind":"shed"'*'"state":"failed"'*) ;;
  *) echo "FAIL: evicted background job not failed/shed: $vdoc"; exit 1 ;;
esac

# One more background submission has nothing to evict. Spelled with an
# explicit "simulate" tier it keeps the hard backpressure contract:
# 503, Retry-After, structured body — never a silent downgrade.
shedhdr=$(mktemp); shedbody=$(mktemp)
simbody='{"config":{"network":"mesh","nodes":16,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":25},"class":"background","fidelity":"simulate","options":{"warmup_cycles":500,"batch_cycles":500,"batches":2}}'
code=$(curl -sS -D "$shedhdr" -o "$shedbody" -w '%{http_code}' -X POST "$fbase/v1/runs" -d "$simbody")
[ "$code" = "503" ] || { echo "FAIL: saturated explicit-simulate POST = $code"; cat "$shedbody"; exit 1; }
grep -qi '^retry-after: [1-9]' "$shedhdr" || { echo "FAIL: shed 503 missing Retry-After:"; cat "$shedhdr"; exit 1; }
grep -q '"class": *"background"' "$shedbody" || { echo "FAIL: shed body missing class:"; cat "$shedbody"; exit 1; }
grep -q '"retry_after_ms": *[1-9]' "$shedbody" || { echo "FAIL: shed body missing retry_after_ms:"; cat "$shedbody"; exit 1; }

# The same submission with no named tier degrades instead of 503: an
# immediate analytic answer, labeled and marked degraded.
deg=$(curl -fsS -X POST "$fbase/v1/runs" -d "$(bgbody 26)" | tr -d '[:space:]')
case "$deg" in
  *'"degraded":true'*) ;;
  *) echo "FAIL: fidelity-agnostic background run not degraded: $deg"; exit 1 ;;
esac
case "$deg" in
  *'"fidelity":"analytic"'*'"max_rel_err":'*) ;;
  *) echo "FAIL: degraded answer not analytic with a bound: $deg"; exit 1 ;;
esac

# Liveness vs readiness: both up, readiness carrying per-class depths.
grep -q '"ok"' <<<"$(curl -fsS "$fbase/healthz")" || { echo "FAIL: healthz under flood"; exit 1; }
grep -q '"interactive"' <<<"$(curl -fsS "$fbase/readyz")" || { echo "FAIL: readyz missing class depths"; exit 1; }

fmetrics=$(curl -fsS "$fbase/metrics")
grep -q 'ringmeshd_admit_total{class="interactive"} 2' <<<"$fmetrics" \
  || { echo "FAIL: interactive admit counter:"; echo "$fmetrics" | grep admit; exit 1; }
# Four background sheds: the evicted flood job, the explicit-simulate
# 503, and the degraded run's own failed admit plus its (also shed)
# upgrade attempt.
grep -q 'ringmeshd_shed_total{class="background"} 4' <<<"$fmetrics" \
  || { echo "FAIL: background shed counter:"; echo "$fmetrics" | grep shed; exit 1; }
grep -q '^ringmeshd_fidelity_degraded_total 1$' <<<"$fmetrics" \
  || { echo "FAIL: degrade counter:"; echo "$fmetrics" | grep fidelity; exit 1; }

# The interactive job completes once the occupier finishes; the two
# surviving background jobs drain behind it.
await "$fbase" "$iid" >/dev/null
kill -TERM "$fpid"; wait "$fpid" || { echo "FAIL: flood daemon exited dirty"; exit 1; }

echo "PASS: overload smoke (interactive admitted+completed under background flood; shed with Retry-After)"

# ---------------------------------------------------------------------
# Stage 5: crash-safe journal. Boot with -journal-dir, stack one
# running job and three queued ones, kill -9 — no drain, no fsync
# beyond what every append already did — then restart over the same
# directory and demand all four complete under their original IDs,
# with the replay visible on /metrics.

journaldir=$(mktemp -d)
jlog1=$(mktemp)
boot "$jlog1" -workers 1 -journal-dir "$journaldir"
jpid1=$BOOT_PID; jbase1="http://$BOOT_ADDR"

jids=()
jid=$(submit_id "$jbase1" "$occupier")   # long: still running at the kill
[ -n "$jid" ] || { echo "FAIL: no journaled occupier id"; exit 1; }
jids+=("$jid")
for i in 31 32 33; do
  body=$(printf '{"config":{"network":"mesh","nodes":16,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":%d},"options":{"warmup_cycles":500,"batch_cycles":500,"batches":2}}' "$i")
  jid=$(submit_id "$jbase1" "$body")
  [ -n "$jid" ] || { echo "FAIL: journaled job $i rejected"; exit 1; }
  jids+=("$jid")
done

kill -9 "$jpid1"
wait "$jpid1" 2>/dev/null || true

jlog2=$(mktemp)
boot "$jlog2" -workers 0 -journal-dir "$journaldir"
jpid2=$BOOT_PID; jbase2="http://$BOOT_ADDR"

for jid in "${jids[@]}"; do
  await "$jbase2" "$jid" >/dev/null
done

jmetrics=$(curl -fsS "$jbase2/metrics")
grep -q '^ringmeshd_journal_replayed_total 4$' <<<"$jmetrics" \
  || { echo "FAIL: replay counter:"; echo "$jmetrics" | grep journal; exit 1; }
grep -q '^ringmeshd_journal_quarantined_total 0$' <<<"$jmetrics" \
  || { echo "FAIL: clean journal quarantined records:"; echo "$jmetrics" | grep journal; exit 1; }

kill -TERM "$jpid2"; wait "$jpid2" || { echo "FAIL: journal daemon exited dirty"; exit 1; }

echo "PASS: journal smoke (kill -9 with 4 unfinished jobs; restart replayed all under original IDs)"

# ---------------------------------------------------------------------
# Stage 6: multi-fidelity serving. Flood a single-worker daemon with
# background jobs, then ask for a cache-cold run at fidelity "auto":
# the answer must come back immediately — analytic-labeled, carrying
# its recorded error bound and a background upgrade job ID — while the
# exact result lands later under its own cache key. The upgrade job
# must finish with an unlabeled exact result, and the fidelity
# counters must tell the story on /metrics.

alog=$(mktemp)
boot "$alog" -workers 1
apid=$BOOT_PID; abase="http://$BOOT_ADDR"

# Occupy the worker and stack a background flood behind it, so the
# auto request below cannot possibly be answered by a quick exact run.
aoid=$(submit_id "$abase" "$occupier")
[ -n "$aoid" ] || { echo "FAIL: no occupier id on fidelity daemon"; exit 1; }
for i in 41 42 43; do
  fid=$(submit_id "$abase" "$(bgbody "$i")")
  [ -n "$fid" ] || { echo "FAIL: background flood job $i rejected"; exit 1; }
done

autobody='{"config":{"network":"mesh","nodes":36,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":44},"options":{"warmup_cycles":500,"batch_cycles":500,"batches":2},"fidelity":"auto"}'
auto=$(curl -fsS -X POST "$abase/v1/runs" -d "$autobody" | tr -d '[:space:]')
case "$auto" in
  *'"state":"done"'*'"fidelity":"analytic"'*|*'"fidelity":"analytic"'*'"state":"done"'*) ;;
  *) echo "FAIL: auto request not answered analytically: $auto"; exit 1 ;;
esac
case "$auto" in
  *'"max_rel_err":'*) ;;
  *) echo "FAIL: analytic answer missing its error bound: $auto"; exit 1 ;;
esac
upid=$(printf '%s' "$auto" | sed -n 's/.*"upgrade_job_id":"\([^"]*\)".*/\1/p')
[ -n "$upid" ] || { echo "FAIL: auto answer missing upgrade job id: $auto"; exit 1; }

# The upgrade runs at the back of the background queue and must land
# the exact, unlabeled result.
updoc=$(await "$abase" "$upid")
case "$updoc" in
  *'"fidelity":"analytic"'*) echo "FAIL: upgrade result still analytic: $updoc"; exit 1 ;;
  *'"observations":'*) ;;
  *) echo "FAIL: upgrade result not a simulation: $updoc"; exit 1 ;;
esac

# A repeat auto request now prefers the cached exact result: no label,
# no new upgrade.
again=$(curl -fsS -X POST "$abase/v1/runs" -d "$autobody" | tr -d '[:space:]')
case "$again" in
  *'"cached":true'*) ;;
  *) echo "FAIL: repeat auto request missed the upgraded result: $again"; exit 1 ;;
esac
case "$again" in
  *'"fidelity":"analytic"'*) echo "FAIL: repeat auto request served the estimate over exact: $again"; exit 1 ;;
esac

ametrics=$(curl -fsS "$abase/metrics")
grep -q 'ringmeshd_fidelity_requests_total{fidelity="auto"} 2' <<<"$ametrics" \
  || { echo "FAIL: auto request counter:"; echo "$ametrics" | grep fidelity; exit 1; }
grep -q '^ringmeshd_fidelity_analytic_answers_total 1$' <<<"$ametrics" \
  || { echo "FAIL: analytic answer counter:"; echo "$ametrics" | grep fidelity; exit 1; }
grep -q '^ringmeshd_fidelity_upgrades_total 1$' <<<"$ametrics" \
  || { echo "FAIL: upgrade counter:"; echo "$ametrics" | grep fidelity; exit 1; }
grep -q 'ringmeshd_fidelity_answer_seconds_bucket{fidelity="analytic",le="+Inf"}' <<<"$ametrics" \
  || { echo "FAIL: no per-fidelity latency histogram:"; echo "$ametrics" | grep fidelity; exit 1; }

kill -TERM "$apid"; wait "$apid" || { echo "FAIL: fidelity daemon exited dirty"; exit 1; }

echo "PASS: fidelity smoke (auto answered analytically under flood; upgrade landed the exact result)"
echo "PASS: ringmeshd smoke"
