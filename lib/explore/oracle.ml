module Store = Rs_storage.Stable_store
module Scheme = Rs_workload.Scheme

type violation = { oracle : string; detail : string }

let pp_violation fmt v = Format.fprintf fmt "%s: %s" v.oracle v.detail

let pp_counters fmt a =
  Format.fprintf fmt "[%s]"
    (String.concat ";" (Array.to_list (Array.map string_of_int a)))

let check_counters ~oracle ~allowed ~actual =
  if List.exists (fun a -> a = actual) allowed then []
  else
    [
      {
        oracle;
        detail =
          Format.asprintf "counters %a not among allowed {%a}" pp_counters
            actual
            (Format.pp_print_list
               ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
               pp_counters)
            allowed;
      };
    ]

let check_log = function
  | None -> []
  | Some log ->
      List.map
        (fun issue ->
          {
            oracle = "log-fsck";
            detail = Format.asprintf "%a" Core.Log_check.pp_issue issue;
          })
        (Core.Log_check.check_log log)

let check_stores stores =
  List.concat
    (List.mapi
       (fun i store ->
         Store.recover store;
         List.map
           (fun (page, what) ->
             {
               oracle = "store-agreement";
               detail = Printf.sprintf "store %d page %d: %s" i page what;
             })
           (Store.agreement_issues store))
       stores)

let check_segments dirs =
  List.concat_map
    (fun dir ->
      List.map
        (fun issue ->
          {
            oracle = "segment-fsck";
            detail = Format.asprintf "%a" Core.Log_check.pp_issue issue;
          })
        (Core.Log_check.check_segments dir))
    dirs

let check_scheme scheme =
  check_log (Scheme.current_log scheme)
  @ check_segments (Scheme.log_dirs scheme)
  @ check_stores (Scheme.stable_stores scheme)
