#!/usr/bin/env bash
# Campaign service smoke: the end-to-end proof of the served-run
# determinism contract on real binaries over real TCP. Starts
# sscampaignd with a directory cache, POSTs the quickstart campaign,
# streams its progress to completion, downloads the per-trial JSONL and
# canonical event log, and byte-compares both against a CLI sscampaign
# run of the same file. A second POST of the same spec must be 100%
# cache hits with identical bytes, and SIGTERM must stop the daemon
# cleanly. The whole flow runs twice, with the daemon at -workers 1 and
# -workers 4: served bytes must not depend on the worker count.
# Usage: scripts/service_smoke.sh [workdir]
set -euo pipefail

DIR=${1:-/tmp/service-smoke}
CAMPAIGN=examples/campaigns/quickstart.campaign
rm -rf "$DIR" && mkdir -p "$DIR"

go build -o "$DIR/sscampaignd" ./cmd/sscampaignd
go build -o "$DIR/sscampaign" ./cmd/sscampaign

# CLI reference artifacts at the same seed.
"$DIR/sscampaign" -jsonl "$DIR/cli.jsonl" -events "$DIR/cli.events" "$CAMPAIGN" >/dev/null 2>&1

# smoke W: start a daemon at -workers W with a fresh directory cache
# and run the served-equals-CLI, warm re-POST and drain checks on it.
smoke() {
    local W=$1 LOG="$DIR/daemon-w$1.log" DAEMON BASE RUN RUN2
    # Daemon on a free port; the bound address is scraped from its stderr.
    "$DIR/sscampaignd" -addr 127.0.0.1:0 -cache "$DIR/cache-w$W" -workers "$W" 2> "$LOG" &
    DAEMON=$!
    trap "kill $DAEMON 2>/dev/null || true" EXIT
    BASE=
    for _ in $(seq 1 100); do
        BASE=$(sed -n 's/^sscampaignd: listening on \(http:\/\/.*\)$/\1/p' "$LOG")
        [ -n "$BASE" ] && break
        kill -0 "$DAEMON" 2>/dev/null || { echo "daemon died:"; cat "$LOG"; exit 1; }
        sleep 0.1
    done
    [ -n "$BASE" ] || { echo "daemon never reported its address"; cat "$LOG"; exit 1; }

    # POST the campaign in streaming form: the ndjson response's first line
    # is the run object, the rest is every progress event (the subscription
    # attaches before the run starts, so the count below is deterministic),
    # and the body ending doubles as the wait for completion.
    curl -fsSN -X POST --data-binary @"$CAMPAIGN" "$BASE/v1/runs?stream=1" > "$DIR/w$W.stream.jsonl"
    RUN=$(head -n 1 "$DIR/w$W.stream.jsonl" | jq -r .id)
    tail -n +2 "$DIR/w$W.stream.jsonl" | jq -es 'map(select(.ev == "trial-finish")) | length' | grep -qx 36 \
        || { echo "stream did not carry 12 cells x 3 trials of progress"; exit 1; }

    # Served artifacts must be byte-identical to the CLI run.
    curl -fsS "$BASE/v1/runs/$RUN/jsonl" > "$DIR/w$W.served.jsonl"
    curl -fsS "$BASE/v1/runs/$RUN/events" > "$DIR/w$W.served.events"
    cmp "$DIR/cli.jsonl" "$DIR/w$W.served.jsonl"
    cmp "$DIR/cli.events" "$DIR/w$W.served.events"
    curl -fsS "$BASE/v1/runs/$RUN" | jq -e '.state == "done" and .cache_misses == 12' >/dev/null

    # Warm re-POST: every cell hits the shared cache, bytes unchanged.
    curl -fsSN -X POST --data-binary @"$CAMPAIGN" "$BASE/v1/runs?stream=1" > "$DIR/w$W.warm-stream.jsonl"
    RUN2=$(head -n 1 "$DIR/w$W.warm-stream.jsonl" | jq -r .id)
    curl -fsS "$BASE/v1/runs/$RUN2" | jq -e '.cache_hits == 12 and .cache_misses == 0' >/dev/null
    curl -fsS "$BASE/v1/runs/$RUN2/jsonl" > "$DIR/w$W.warm.jsonl"
    cmp "$DIR/cli.jsonl" "$DIR/w$W.warm.jsonl"
    curl -fsS "$BASE/v1/cache" | jq -e '.entries == 12' >/dev/null

    # Graceful shutdown: SIGTERM drains and exits 0.
    kill -TERM "$DAEMON"
    wait "$DAEMON"
    trap - EXIT
    grep -q 'sscampaignd: stopped' "$LOG"
}

smoke 1
smoke 4

echo "service smoke OK at -workers 1 and 4: served JSONL and events byte-identical to the CLI run, warm re-POST fully cached, clean SIGTERM drain"
