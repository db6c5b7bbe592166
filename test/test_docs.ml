(* Reference docs against their registries: docs/METRICS.md's metric
   tables (every table whose first column is "Name") must list exactly
   the counters, gauges and timers the linked libraries register.  The
   test links every library with -linkall, so each module that
   registers a metric at initialisation has run before the snapshot. *)

module Metrics = Prax_metrics.Metrics

let metrics_md =
  Filename.concat
    (Filename.concat
       (Filename.dirname (Filename.dirname Sys.executable_name))
       "docs")
    "METRICS.md"

let cells line =
  String.split_on_char '|' line |> List.map String.trim
  |> List.filter (fun c -> c <> "")

(* The first cell of each row of a "| Name | ..." table, unquoted. *)
let documented () =
  let lines =
    In_channel.with_open_text metrics_md In_channel.input_all
    |> String.split_on_char '\n'
  in
  let rec go in_table acc = function
    | [] -> List.rev acc
    | line :: rest when not (String.starts_with ~prefix:"|" line) ->
        go false acc rest
    | line :: rest -> (
        match cells line with
        | "Name" :: _ -> go true acc rest
        | first :: _
          when in_table
               && not (String.starts_with ~prefix:"---" first) ->
            let n = String.length first in
            if n > 2 && first.[0] = '`' && first.[n - 1] = '`' then
              go in_table (String.sub first 1 (n - 2) :: acc) rest
            else Alcotest.failf "METRICS.md: row name is not `quoted`: %s" line
        | _ -> go in_table acc rest)
  in
  go false [] lines

let registered () =
  let s = Metrics.snapshot () in
  List.map (fun (c : Metrics.sample) -> c.Metrics.name)
    (s.Metrics.counters @ s.Metrics.gauges)
  @ List.map (fun (t : Metrics.timing) -> t.Metrics.timer_name) s.Metrics.timers

let missing_from ~present names =
  List.sort_uniq compare (List.filter (fun n -> not (List.mem n present)) names)

let test_registered_documented () =
  Alcotest.(check (list string))
    "registered metrics without a METRICS.md row" []
    (missing_from ~present:(documented ()) (registered ()))

let test_documented_registered () =
  Alcotest.(check (list string))
    "METRICS.md rows naming no registered metric" []
    (missing_from ~present:(registered ()) (documented ()))

let () =
  Alcotest.run "docs"
    [
      ( "metrics",
        [
          Alcotest.test_case "every registered metric has a row" `Quick
            test_registered_documented;
          Alcotest.test_case "every row names a registered metric" `Quick
            test_documented_registered;
        ] );
    ]
