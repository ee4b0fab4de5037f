#!/usr/bin/env bash
# Smoke test for the serving daemon, end to end over HTTP, in five
# stages:
#   1. cache hit: boot with -pprof and -workers 2, check health,
#      that a request naming fault_plan (a field the daemon no longer
#      has) is refused with a 400 naming it while the daemon stays up,
#      metrics (latency histogram buckets) and a CPU profile fetch,
#      submit the same run twice and assert the second is answered from
#      the result cache — also when resubmitted with a different
#      "workers" value, which the cache key ignores — fetch the job's
#      lifecycle trace, post a batch naming one new run twice (its
#      points fan out over both simulation slots) and assert the first
#      entry computed and the second was cached, and shut down
#      gracefully with SIGTERM;
#   2. durability across kill -9: boot with -cache-dir, kill -9
#      mid-load, restart over the same directory, and prove the
#      pre-crash result is served from the disk tier (the cache-hit
#      counters are the proof, not wall-clock);
#   3. overload shedding: at a full queue the next submission is a 503
#      with Retry-After and a structured body, and every queued job
#      still finishes;
#   4. journal replay: kill -9 with jobs running and queued, restart
#      over the journal, every job finishes under its original ID, and
#      a new job gets none of those IDs;
#   5. auto fidelity: an auto request is answered analytically while
#      the worker is busy, its upgrade job lands the exact result, the
#      upgrade, being best-effort, writes nothing to the journal, and
#      the estimate writes nothing to the disk cache.
#
# No dependencies beyond curl and the Go toolchain.
set -euo pipefail

cd "$(dirname "$0")/.."

bin=$(mktemp -d)/ringmeshd
log=$(mktemp)
go build -o "$bin" ./cmd/ringmeshd

"$bin" -addr 127.0.0.1:0 -pprof -workers 2 >"$log" 2>&1 &
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

# A run that cannot have a confidence interval — one batch, or one PM
# where every access is local — is a 400 at submission naming the rule,
# never a 202 whose job document then fails to encode.
refused=$(mktemp)
onebatch='{"config":{"network":"mesh","nodes":16,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":42},"options":{"warmup_cycles":500,"batch_cycles":500,"batches":1}}'
code=$(curl -sS -o "$refused" -w '%{http_code}' -X POST "$base/v1/runs" -d "$onebatch")
[ "$code" = "400" ] && grep -q 'at least 2 batches' "$refused" \
  || { echo "FAIL: one-batch run = $code:"; cat "$refused"; exit 1; }
onepm='{"config":{"network":"ring","topology":"1","line_bytes":32,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":42},"options":{"warmup_cycles":500,"batch_cycles":500,"batches":2}}'
code=$(curl -sS -o "$refused" -w '%{http_code}' -X POST "$base/v1/runs" -d "$onepm")
[ "$code" = "400" ] && grep -q 'at least 2 PMs' "$refused" \
  || { echo "FAIL: one-PM run = $code:"; cat "$refused"; exit 1; }
# The daemon has no fault plans: a request naming one is a 400 naming
# the field, never a fault-free run under the client's job ID, and the
# daemon stays up.
faulted='{"config":{"network":"ring","topology":"2:4","line_bytes":32,"fault_plan":"stutter@600+2000:node=0","workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":42},"options":{"warmup_cycles":500,"batch_cycles":500,"batches":2}}'
code=$(curl -sS -o "$refused" -w '%{http_code}' -X POST "$base/v1/runs" -d "$faulted")
[ "$code" = "400" ] && grep -q 'unknown field \\"fault_plan\\"' "$refused" \
  || { echo "FAIL: fault_plan request = $code:"; cat "$refused"; exit 1; }
code=$(curl -sS -o /dev/null -w '%{http_code}' "$base/healthz")
[ "$code" = "200" ] || { echo "FAIL: healthz = $code after the refused fault plan"; exit 1; }

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

# A batch naming one new run twice fans its points out over both
# simulation slots, yet the repeat still resolves after its original:
# items[0] computed (no "cached" field) and items[1] cached.
run43='{"config":{"network":"mesh","nodes":16,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":43},"options":{"warmup_cycles":500,"batch_cycles":500,"batches":2}}'
bresp=$(curl -fsS -X POST "$base/v1/batch" -d "{\"runs\":[$run43,$run43]}" | tr -d '[:space:]')
bid=$(printf '%s' "$bresp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$bid" ] || { echo "FAIL: no job id in batch response: $bresp"; exit 1; }
bdoc=""
for _ in $(seq 1 200); do
  bdoc=$(curl -fsS "$base/v1/jobs/$bid" | tr -d '[:space:]')
  case "$bdoc" in
    *'"state":"done"'*|*'"state":"failed"'*) break ;;
  esac
  sleep 0.1
done
case "$bdoc" in
  *'"state":"done"'*'"index":0,"topology":"4x4","result"'*'"index":1,"topology":"4x4","cached":true,'*) ;;
  *) echo "FAIL: batch [A, A] did not compute items[0] and cache items[1]: $bdoc"; exit 1 ;;
esac

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
# Stage 3: overload. One worker, a three-job queue, a long occupier
# and three queued jobs. The fourth submission is shed with 503 +
# Retry-After + a structured {"error","retry_after_ms"} body, nothing
# queued is evicted, and the admit/shed counters tell the story on
# /metrics.

flog=$(mktemp)
boot "$flog" -workers 1 -queue 3
fpid=$BOOT_PID; fbase="http://$BOOT_ADDR"

occupier='{"config":{"network":"mesh","nodes":256,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":20},"options":{"warmup_cycles":20000,"batch_cycles":20000,"batches":8}}'
oid=$(submit_id "$fbase" "$occupier")
[ -n "$oid" ] || { echo "FAIL: no occupier id"; exit 1; }
# Wait until the worker picks it up, so the jobs below only compete
# for queue slots, never for the worker.
started=""
for _ in $(seq 1 100); do
  case "$(curl -fsS "$fbase/v1/jobs/$oid" | tr -d '[:space:]')" in
    *'"state":"running"'*) started=yes; break ;;
  esac
  sleep 0.1
done
[ -n "$started" ] || { echo "FAIL: occupier never started"; exit 1; }

# Distinct seeds, so the single-flight cache cannot collapse them.
runbody() { printf '{"config":{"network":"mesh","nodes":16,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":%d},"options":{"warmup_cycles":500,"batch_cycles":500,"batches":2}}' "$1"; }
qids=()
for i in 21 22 23; do
  qid=$(submit_id "$fbase" "$(runbody "$i")")
  [ -n "$qid" ] || { echo "FAIL: job $i rejected below the queue bound"; exit 1; }
  qids+=("$qid")
done

shedhdr=$(mktemp); shedbody=$(mktemp)
code=$(curl -sS -D "$shedhdr" -o "$shedbody" -w '%{http_code}' -X POST "$fbase/v1/runs" -d "$(runbody 24)")
[ "$code" = "503" ] || { echo "FAIL: POST at a full queue = $code"; cat "$shedbody"; exit 1; }
grep -qi '^retry-after: [1-9]' "$shedhdr" || { echo "FAIL: shed 503 missing Retry-After:"; cat "$shedhdr"; exit 1; }
grep -q '"retry_after_ms": *[1-9]' "$shedbody" || { echo "FAIL: shed body missing retry_after_ms:"; cat "$shedbody"; exit 1; }
if grep -q '"class"' "$shedbody"; then echo "FAIL: shed body names a class:"; cat "$shedbody"; exit 1; fi

# Liveness vs readiness: both up, readiness carrying the queued count.
grep -q '"ok"' <<<"$(curl -fsS "$fbase/healthz")" || { echo "FAIL: healthz under flood"; exit 1; }
grep -q '"queued"' <<<"$(curl -fsS "$fbase/readyz")" || { echo "FAIL: readyz missing the queued count"; exit 1; }

fmetrics=$(curl -fsS "$fbase/metrics")
grep -q '^ringmeshd_shed_total 1$' <<<"$fmetrics" \
  || { echo "FAIL: shed counter:"; echo "$fmetrics" | grep shed; exit 1; }
grep -q '^ringmeshd_admit_total 4$' <<<"$fmetrics" \
  || { echo "FAIL: admit counter:"; echo "$fmetrics" | grep admit; exit 1; }

# The three queued jobs finish once the occupier is through.
for qid in "${qids[@]}"; do
  await "$fbase" "$qid" >/dev/null
done
kill -TERM "$fpid"; wait "$fpid" || { echo "FAIL: flood daemon exited dirty"; exit 1; }

echo "PASS: overload smoke (fourth job shed with Retry-After at a full queue; the three queued finished)"

# ---------------------------------------------------------------------
# Stage 4: crash-safe journal. Boot with -journal-dir, stack one
# running job and three queued ones, kill -9 — no drain, no fsync
# beyond what every append already did — then restart over the same
# directory and demand all four complete under their original IDs,
# with the replay visible on /metrics, and that the restarted daemon
# gives a new job an ID none of the four had.

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

newid=$(submit_id "$jbase2" "$(runbody 34)")
[ -n "$newid" ] || { echo "FAIL: no job id from the restarted journal daemon"; exit 1; }
for jid in "${jids[@]}"; do
  [ "$newid" != "$jid" ] || { echo "FAIL: restart reissued the pre-kill ID $jid"; exit 1; }
done

kill -TERM "$jpid2"; wait "$jpid2" || { echo "FAIL: journal daemon exited dirty"; exit 1; }

echo "PASS: journal smoke (kill -9 with 4 unfinished jobs; restart replayed all under original IDs, new job $newid)"

# ---------------------------------------------------------------------
# Stage 5: multi-fidelity serving. Queue jobs behind a single busy
# worker, then ask for a cache-cold run at fidelity "auto": the answer
# must come back immediately — analytic-labeled, carrying its recorded
# error bound and the ID of its upgrade job — while the
# exact result lands later under its own cache key. The upgrade job
# must finish with an unlabeled exact result, and the fidelity
# counters must tell the story on /metrics. The daemon journals: the
# upgrade is best-effort and must append nothing to it. It also keeps a
# disk cache: an estimate is recomputed on every request, so only the
# simulated results are written to it.

alog=$(mktemp)
boot "$alog" -workers 1 -journal-dir "$(mktemp -d)" -cache-dir "$(mktemp -d)"
apid=$BOOT_PID; abase="http://$BOOT_ADDR"

# Occupy the worker and queue jobs behind it, so the auto request
# below cannot possibly be answered by a quick exact run.
aoid=$(submit_id "$abase" "$occupier")
[ -n "$aoid" ] || { echo "FAIL: no occupier id on fidelity daemon"; exit 1; }
for i in 41 42 43; do
  fid=$(submit_id "$abase" "$(runbody "$i")")
  [ -n "$fid" ] || { echo "FAIL: queued job $i rejected"; exit 1; }
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

# The upgrade runs at the back of the queue and must land the exact,
# unlabeled result.
updoc=$(await "$abase" "$upid")
case "$updoc" in
  *'"fidelity":"analytic"'*) echo "FAIL: upgrade result still analytic: $updoc"; exit 1 ;;
  *'"observations":'*) ;;
  *) echo "FAIL: upgrade result not a simulation: $updoc"; exit 1 ;;
esac
# The one worker ran the occupier and the three queued jobs before the
# upgrade: accepted + done for each is 8 appends, and the upgrade adds
# none.
grep -q '^ringmeshd_journal_appends_total 8$' <<<"$(curl -fsS "$abase/metrics")" \
  || { echo "FAIL: journal appends with the upgrade landed:"; curl -fsS "$abase/metrics" | grep journal; exit 1; }
# The disk cache holds the five simulations (occupier, three queued
# runs, upgrade) and not the estimate.
grep -q '^ringmeshd_disk_cache_writes_total 5$' <<<"$(curl -fsS "$abase/metrics")" \
  || { echo "FAIL: disk cache writes with the upgrade landed:"; curl -fsS "$abase/metrics" | grep disk_cache; exit 1; }

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

echo "PASS: fidelity smoke (auto answered analytically under flood; upgrade landed the exact result, unjournaled; estimate not cached)"
echo "PASS: ringmeshd smoke"
