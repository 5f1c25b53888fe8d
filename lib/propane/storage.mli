(** Persistent storage for campaign results.

    Campaigns are expensive (the paper's full plan is 52,000 runs), so
    the tool separates running them from analysing them.  The format is
    a versioned, line-based, tab-separated text format — diff-able,
    greppable, stable across platforms.

    Results file:
    {v
    propane-results 1
    sut <tab> NAME
    campaign <tab> NAME
    outcome <tab> TESTCASE <tab> TARGET <tab> AT_MS <tab> ERROR
    status <tab> STATUS                    (only when the run failed)
    div <tab> SIGNAL <tab> FIRST_MS        (0..n per outcome)
    v}

    [STATUS] is [crashed:AT_MS:REASON] or [hung:BUDGET_MS] (see
    {!Results.status}); a run that completed normally writes no status
    line, so files from failure-free campaigns are byte-identical to
    the original format and v1 files load with every status defaulting
    to {!Results.Completed}.

    The append-only campaign journal ({!Journal}) follows the same
    versioned-magic convention. *)

val error_to_string : Error_model.t -> string
(** e.g. ["bitflip:3"], ["stuck:17"], ["offset:-2"], ["uniform"]. *)

val error_of_string : string -> (Error_model.t, string) result

val status_to_string : Results.status -> string
(** ["completed"], ["crashed:AT_MS:REASON"] (the reason is the final,
    rest-of-line field and may itself contain [':']), or
    ["hung:BUDGET_MS"]. *)

val status_of_string : string -> (Results.status, string) result

val save_results : string -> Results.t -> (unit, string) result
(** Fails — before anything is written — if a name contains a
    separator character.  @raise Sys_error on I/O failure. *)

val load_results : string -> (Results.t, string) result
(** Fails with a line-numbered message on malformed input. *)
